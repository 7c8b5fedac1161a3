#include "core/detector.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace faultyrank {

std::size_t DetectionReport::count(InconsistencyCategory category) const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [category](const Finding& f) {
                      return f.category == category;
                    }));
}

std::size_t DetectionReport::unverifiable_count() const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [](const Finding& f) { return f.unverifiable; }));
}

RepairPlan DetectionReport::repair_plan() const {
  // Two findings may recommend the same physical write (e.g. every
  // child of a mis-identified directory independently recovers the same
  // id overwrite, each via a different witness); the first one stays.
  // Id overwrites and quarantines are identical when (target, value)
  // match; other actions also compare the property slot they touch.
  struct Write {
    RepairKind kind;
    Fid target, value, stale;
    EdgeKind edge_kind;
    bool operator==(const Write&) const = default;
  };
  struct WriteHash {
    std::size_t operator()(const Write& w) const noexcept {
      const FidHash fid_hash;
      std::size_t h = static_cast<std::size_t>(w.kind) * 16 +
                      static_cast<std::size_t>(w.edge_kind);
      for (const Fid* fid : {&w.target, &w.value, &w.stale}) {
        h = h * 0x9e3779b97f4a7c15ULL + fid_hash(*fid);
      }
      return h;
    }
  };
  // The set is freed before the plan copies its actions, so the set's
  // nodes do not sit between the copies' note strings: interleaved,
  // they raised perfbench repair_dense's peak RSS from 105.6 to 113.2 MB.
  std::vector<const RepairAction*> kept;
  {
    std::unordered_set<Write, WriteHash> seen;
    for (const auto& finding : findings) {
      const RepairAction& action = finding.repair;
      if (action.kind == RepairKind::kNone) continue;
      const bool slotless = action.kind == RepairKind::kOverwriteId ||
                            action.kind == RepairKind::kQuarantineLostFound;
      const Write write{action.kind, action.target, action.value,
                        slotless ? kNullFid : action.stale,
                        slotless ? EdgeKind::kGeneric : action.edge_kind};
      if (seen.insert(write).second) kept.push_back(&action);
    }
  }
  RepairPlan plan;
  plan.reserve(kept.size());
  for (const RepairAction* action : kept) plan.push_back(*action);
  // Suppression: an object that some other repair re-attaches (appears
  // as a repair *value*) does not belong in lost+found — keeping it
  // would double-handle the same orphan.
  std::unordered_set<Fid, FidHash> reattached;
  for (const RepairAction& action : plan) {
    if (action.kind != RepairKind::kQuarantineLostFound) {
      reattached.insert(action.value);
    }
  }
  std::erase_if(plan, [&reattached](const RepairAction& action) {
    return action.kind == RepairKind::kQuarantineLostFound &&
           reattached.contains(action.target);
  });
  return plan;
}

namespace {

/// Detection context shared across the passes.
struct Ctx {
  const UnifiedGraph& graph;
  const FaultyRankResult& ranks;
  const DetectorConfig& config;
  // Unpaired edges grouped by destination: incoming[u] lists all
  // unpaired (w → u), used to pair a dangling reference with the
  // mis-identified object it was meant to reach.
  std::unordered_map<Gid, std::vector<const UnpairedEdge*>> incoming;
  // Orphans already matched to some relink repair this run, so two
  // dangling slots of one corrupted property never both claim the same
  // stranded object.
  std::unordered_set<Gid> consumed_orphans;
  // Phantom ids an id-collision repair will re-assign to a duplicate
  // object; dangling references to them are resolved by that repair and
  // must not trigger a second, conflicting one.
  std::unordered_set<Gid> resolved_phantoms;

  /// Counts u's out-edges of `kind`, split by pairing.
  void count_kind(Gid u, EdgeKind kind, std::size_t& paired_count,
                  std::size_t& unpaired_count) const {
    paired_count = unpaired_count = 0;
    const Csr& fwd = graph.forward();
    for (auto slot = fwd.edges_begin(u); slot < fwd.edges_end(u); ++slot) {
      if (fwd.kind(slot) != kind) continue;
      if (graph.paired(slot)) {
        ++paired_count;
      } else {
        ++unpaired_count;
      }
    }
  }

  [[nodiscard]] double id_rank(Gid v) const {
    return ranks.normalized_id_rank(v);
  }
  [[nodiscard]] double prop_rank(Gid v) const {
    return ranks.normalized_prop_rank(v);
  }
  [[nodiscard]] const Fid& fid(Gid v) const {
    return graph.vertices().fid_of(v);
  }
  [[nodiscard]] bool scanned(Gid v) const {
    return graph.vertices().is_scanned(v);
  }
  [[nodiscard]] ObjectKind okind(Gid v) const {
    return graph.vertices().kind_of(v);
  }
  [[nodiscard]] std::uint64_t in_degree(Gid v) const {
    return graph.paired_in_degree(v) + graph.unpaired_in_degree(v);
  }
};

/// Exclusive-reference kinds: at most one object may claim a child via
/// these properties (one DIRENT entry per object, one LOVEA owner per
/// stripe).
[[nodiscard]] constexpr bool kind_is_exclusive(EdgeKind kind) noexcept {
  return kind == EdgeKind::kDirent || kind == EdgeKind::kLovEa;
}

/// Whether a scanned object of kind `obj` can carry property entries of
/// edge kind `kind` at all: a regular file has no DIRENTs, a stripe
/// object no LOVEA. No repair of such a target could ever reconcile an
/// edge expecting that point-back.
[[nodiscard]] constexpr bool kind_can_carry(ObjectKind obj,
                                            EdgeKind kind) noexcept {
  switch (kind) {
    case EdgeKind::kDirent:
      return obj == ObjectKind::kDirectory;
    case EdgeKind::kLinkEa:
      return obj == ObjectKind::kDirectory || obj == ObjectKind::kFile;
    case EdgeKind::kLovEa:
      return obj == ObjectKind::kFile;
    case EdgeKind::kObjParent:
      return obj == ObjectKind::kStripeObject;
    case EdgeKind::kGeneric:
      return true;
  }
  return true;
}

void fill_rank_evidence(const Ctx& ctx, Gid src, Gid dst, Finding& f) {
  f.source_id_rank = ctx.id_rank(src);
  f.source_prop_rank = ctx.prop_rank(src);
  f.target_id_rank = ctx.id_rank(dst);
  f.target_prop_rank = ctx.prop_rank(dst);
}

/// Searches `dst`'s unpaired out-edges for a phantom target of the
/// expected point-back kind: the id the object *meant* to reference.
[[nodiscard]] Gid find_phantom_pointback(const Ctx& ctx, Gid dst,
                                         EdgeKind forward_kind) {
  const EdgeKind expect = paired_kind(forward_kind);
  const Csr& fwd = ctx.graph.forward();
  for (auto slot = fwd.edges_begin(dst); slot < fwd.edges_end(dst); ++slot) {
    if (ctx.graph.paired(slot)) continue;
    if (fwd.kind(slot) != expect) continue;
    const Gid p = fwd.target(slot);
    if (!ctx.scanned(p)) return p;
  }
  return kInvalidGid;
}

/// Dangling reference: u's property references v, but no scanned object
/// carries v's id (v is a phantom vertex). Table I root causes:
///   1. u's property is wrong             → drop the reference
///   2. the intended object's id is wrong → restore that object's id
void handle_dangling(Ctx& ctx, const UnpairedEdge& e,
                     std::vector<Finding>& out) {
  // An id-collision repair already re-assigns this phantom id to the
  // duplicate object; this dangling reference is resolved by it.
  if (ctx.resolved_phantoms.contains(e.dst)) return;

  Finding f;
  f.category = InconsistencyCategory::kDanglingReference;
  f.source = ctx.fid(e.src);
  f.target = ctx.fid(e.dst);
  f.edge_kind = e.kind;
  fill_rank_evidence(ctx, e.src, e.dst, f);

  // Degraded coverage: the referenced id lives in a FID space the scan
  // lost (crashed server, quarantined inode). The object may well exist
  // — this reference dangles because the scan is incomplete, not
  // because anyone's metadata is wrong. Report it unverifiable and
  // convict nothing. This must run before the aggregate-evidence branch
  // below: a healthy file whose stripes all sat on a crashed OST would
  // otherwise look like "pairs with none of its references" and get its
  // property convicted — a false positive manufactured by the outage.
  if (ctx.config.coverage.fid_lost(f.target)) {
    f.culprit = FaultyField::kUndetermined;
    f.repair.kind = RepairKind::kNone;
    f.unverifiable = true;
    f.note = "referenced id lies in lost scan coverage; re-check when the "
             "server recovers";
    out.push_back(std::move(f));
    return;
  }

  // Aggregate evidence (paper §II-C): if the source cannot pair with
  // *any* of its references of this kind — several all dangle, none
  // answer — then one corrupted property is far more plausible than
  // every counterpart's id being wrong at once. Convict the property
  // and re-link each slot to a stranded counterpart that still points
  // back at the source.
  const EdgeKind pointback = paired_kind(e.kind);
  std::size_t paired_count = 0;
  std::size_t unpaired_count = 0;
  ctx.count_kind(e.src, e.kind, paired_count, unpaired_count);
  if (paired_count == 0 && unpaired_count >= 2) {
    f.culprit = FaultyField::kSourceProperty;
    f.convicted_object = ctx.fid(e.src);
    f.convicted_id_field = false;
    Gid orphan = kInvalidGid;
    if (const auto it = ctx.incoming.find(e.src); it != ctx.incoming.end()) {
      for (const UnpairedEdge* back : it->second) {
        if (back->kind != pointback) continue;
        if (!ctx.scanned(back->src)) continue;
        if (ctx.graph.paired_in_degree(back->src) != 0) continue;
        if (ctx.consumed_orphans.contains(back->src)) continue;
        orphan = back->src;
        break;
      }
    }
    if (orphan != kInvalidGid) {
      ctx.consumed_orphans.insert(orphan);
      f.repair = {RepairKind::kRelinkProperty, ctx.fid(e.src), ctx.fid(orphan),
                  ctx.fid(e.dst), e.kind, kNullFid,
                  "re-link the corrupted property slot to a stranded "
                  "counterpart that still points back"};
      f.note = "source pairs with none of its references; property convicted";
    } else {
      f.repair = {RepairKind::kRemoveReference, ctx.fid(e.src), ctx.fid(e.dst),
                  kNullFid, e.kind, kNullFid,
                  "drop corrupted reference (no stranded counterpart left)"};
      f.note = "source pairs with none of its references; property convicted";
    }
    out.push_back(std::move(f));
    return;
  }

  // Root cause 2: a scanned object w still points back at u with the
  // matching property kind, but u never references w — w is the object
  // whose id was corrupted away from what u expects.
  const auto it = ctx.incoming.find(e.src);
  if (it != ctx.incoming.end()) {
    for (const UnpairedEdge* back : it->second) {
      if (back->kind != pointback) continue;
      if (!ctx.scanned(back->src)) continue;
      // A genuinely mis-identified object has nothing pairing into it;
      // an object other neighbours still corroborate is not the one
      // whose id changed.
      if (ctx.graph.paired_in_degree(back->src) != 0) continue;
      if (ctx.id_rank(back->src) >= ctx.config.threshold) continue;
      f.culprit = FaultyField::kTargetId;
      f.convicted_object = ctx.fid(back->src);
      f.convicted_id_field = true;
      f.repair = {RepairKind::kOverwriteId, ctx.fid(back->src), ctx.fid(e.dst),
                  kNullFid, e.kind, ctx.fid(e.src),
                  "restore corrupted object id to the id its referrer "
                  "expects"};
      f.note = "dangling target matched with a mis-identified object that "
               "still points back";
      out.push_back(std::move(f));
      return;
    }
  }

  // Root cause 1: u's property itself is not credible.
  if (ctx.prop_rank(e.src) < ctx.config.threshold) {
    f.culprit = FaultyField::kSourceProperty;
    f.convicted_object = ctx.fid(e.src);
    f.convicted_id_field = false;
    f.repair = {RepairKind::kRemoveReference, ctx.fid(e.src), ctx.fid(e.dst),
                kNullFid, e.kind, kNullFid,
                "drop reference to a non-existent id"};
    f.note = "referencing property has no corroborating neighbours";
  } else if (ctx.in_degree(e.dst) <= 1) {
    // Elimination: coverage over the target's fid space is complete
    // (the unverifiable branch above fired otherwise), nothing scanned
    // carries the id, no stranded counterpart points back, and this is
    // the phantom's only referrer. Destructive ops interrupted after
    // freeing their object leave exactly this shape, and without the
    // drop no repair round ever reconciles it. A phantom several
    // objects endorse stays undetermined below — a shared id hints at
    // a mis-identified object the scan has not explained.
    f.culprit = FaultyField::kSourceProperty;
    f.convicted_object = ctx.fid(e.src);
    f.convicted_id_field = false;
    f.repair = {RepairKind::kRemoveReference, ctx.fid(e.src), ctx.fid(e.dst),
                kNullFid, e.kind, kNullFid,
                "drop the only reference to an id no server carries"};
    f.note = "dangling reference convicted by elimination: full coverage, "
             "sole referrer, no counterpart answers";
  } else {
    f.culprit = FaultyField::kUndetermined;
    f.repair.kind = RepairKind::kNone;
    f.note = "dangling reference with no convicted field; user input needed";
  }
  out.push_back(std::move(f));
}

/// Mismatch / unreferenced: u references scanned v, v does not point
/// back. Root causes (Fig. 5): v's property is wrong, or u's id is
/// wrong (v points back at the id u *should* have — a phantom).
void handle_mismatch(Ctx& ctx, const UnpairedEdge& e,
                     std::vector<Finding>& out) {
  Finding f;
  f.source = ctx.fid(e.src);
  f.target = ctx.fid(e.dst);
  f.edge_kind = e.kind;
  fill_rank_evidence(ctx, e.src, e.dst, f);

  // If the *source* has no incoming references at all, the observation
  // users see is "no object refers to u" — Table I's Unreferenced
  // Object, with u playing the part of b.
  const bool source_unreferenced = ctx.scanned(e.src) &&
                                   ctx.in_degree(e.src) == 0 &&
                                   ctx.fid(e.src) != ctx.config.root;
  f.category = source_unreferenced
                   ? InconsistencyCategory::kUnreferencedObject
                   : InconsistencyCategory::kMismatch;

  const double target_prop = ctx.prop_rank(e.dst);
  const double source_id = ctx.id_rank(e.src);
  const double threshold = ctx.config.threshold;

  // Aggregate evidence (paper §II-C mirror): the target should answer
  // with a property of kind pk but has *no* such entries at all — not
  // even one pointing at a wrong id. Had the source's id been the
  // corrupted field instead, the target would still carry a point-back
  // (to the old, now-phantom id); a completely absent property convicts
  // the target. (The root is exempt: nothing points back from the root
  // by design.)
  const EdgeKind pk = paired_kind(e.kind);
  std::size_t target_pk_paired = 0;
  std::size_t target_pk_unpaired = 0;
  ctx.count_kind(e.dst, pk, target_pk_paired, target_pk_unpaired);
  if (target_pk_paired + target_pk_unpaired == 0 &&
      ctx.fid(e.dst) != ctx.config.root) {
    if (ctx.scanned(e.dst) && !kind_can_carry(ctx.okind(e.dst), pk)) {
      // The target answers no point-back because it *cannot*: its kind
      // never carries entries of the paired property (a corrupted
      // reference landed on a live object of the wrong type). Rebuilding
      // the target's property would plant an entry the scanner never
      // reads back, so the edge would stay unpaired forever — the
      // reference itself is the culprit.
      f.culprit = FaultyField::kSourceProperty;
      f.convicted_object = ctx.fid(e.src);
      f.convicted_id_field = false;
      f.repair = {RepairKind::kRemoveReference, ctx.fid(e.src),
                  ctx.fid(e.dst), kNullFid, e.kind, kNullFid,
                  "drop a reference its target can never answer"};
      f.note = "target cannot carry the paired property kind; the "
               "reference is structurally impossible";
      out.push_back(std::move(f));
      return;
    }
    f.culprit = FaultyField::kTargetProperty;
    f.convicted_object = ctx.fid(e.dst);
    f.convicted_id_field = false;
    f.repair = {RepairKind::kAddBackPointer, ctx.fid(e.dst), ctx.fid(e.src),
                kNullFid, pk, kNullFid,
                "rebuild emptied property from the objects still pointing "
                "at it"};
    f.note = "target has no entries of the expected kind but several "
             "unanswered referrers";
    out.push_back(std::move(f));
    return;
  }

  // Primary discriminator (paper §II-C): whose story do the *other*
  // neighbours corroborate? If anyone still pairs with u, u's id is
  // fine and v's property must have lost the point-back. If nobody can
  // reference u at all, u's id is the suspect.
  // If v is claimed by several objects through an exclusive property
  // (one DIRENT parent, one LOVEA owner), the unpaired claims are the
  // Double Reference handler's to resolve — restoring a point-back to a
  // bogus claimant here would bless the duplicate.
  if (kind_is_exclusive(e.kind)) {
    std::size_t claims = 0;
    const Csr& rev = ctx.graph.reverse();
    for (auto slot = rev.edges_begin(e.dst); slot < rev.edges_end(e.dst);
         ++slot) {
      if (rev.kind(slot) == e.kind) ++claims;
    }
    if (claims >= 2) return;
  }

  const bool source_id_corroborated = ctx.graph.paired_in_degree(e.src) > 0;

  if (source_id_corroborated) {
    // Structural evidence that v's point-back is fabricated: it
    // references a phantom id endorsed by nobody but v itself — a
    // wishful pointer whose credit is purely self-sustained. (The Fig. 4
    // per-vertex weight normalization cannot decay a single-out-edge
    // cycle, so this case is decided on structure, not rank.)
    bool target_points_wishfully = false;
    {
      const Csr& fwd = ctx.graph.forward();
      const EdgeKind expect = paired_kind(e.kind);
      for (auto slot = fwd.edges_begin(e.dst); slot < fwd.edges_end(e.dst);
           ++slot) {
        if (ctx.graph.paired(slot) || fwd.kind(slot) != expect) continue;
        const Gid p = fwd.target(slot);
        if (!ctx.scanned(p) && ctx.in_degree(p) == 1 &&
            !ctx.resolved_phantoms.contains(p)) {
          target_points_wishfully = true;
          break;
        }
      }
    }
    if (target_prop < threshold || target_points_wishfully) {
      // v's property lost the point-back: restore it from u's id.
      f.culprit = FaultyField::kTargetProperty;
      f.convicted_object = ctx.fid(e.dst);
      f.convicted_id_field = false;
      f.repair = {RepairKind::kAddBackPointer, ctx.fid(e.dst), ctx.fid(e.src),
                  kNullFid, paired_kind(e.kind), kNullFid,
                  "restore lost point-back from the referencing object's id"};
      f.note = "source id corroborated by paired neighbours; target property "
               "rank below threshold";
    } else if (e.kind == EdgeKind::kLinkEa || e.kind == EdgeKind::kDirent) {
      // Naming edges are the ordered sub-updates of one namespace op
      // (mkdir/create/link write the LinkEA before the DIRENT; rename
      // rewrites the LinkEA first). One side present without the other
      // is the signature of an interrupted op, not something the hub
      // directory's rank can arbitrate — roll the op forward by
      // restoring the missing point-back from the side that was
      // written. (The exclusive-claims guard above already routed
      // multi-claimant targets to the double-reference handler.)
      f.culprit = FaultyField::kTargetProperty;
      f.convicted_object = ctx.fid(e.dst);
      f.convicted_id_field = false;
      f.repair = {RepairKind::kAddBackPointer, ctx.fid(e.dst), ctx.fid(e.src),
                  kNullFid, paired_kind(e.kind), kNullFid,
                  "restore the missing point-back of an interrupted "
                  "namespace op"};
      f.note = "source id corroborated; naming edge rolled forward";
    } else {
      f.culprit = FaultyField::kUndetermined;
      f.repair.kind = RepairKind::kNone;
      f.note = "source id corroborated but target property not convicted";
    }
    out.push_back(std::move(f));
    return;
  }

  // Nothing pairs into u. If u is itself an orphan some other repair
  // already re-attaches, this record is resolved there.
  if (ctx.consumed_orphans.contains(e.src)) return;

  if (source_id < threshold && source_id <= target_prop) {
    // u's id is wrong. v (or u's other neighbours) may still reference
    // the id u is supposed to carry — a phantom reachable from v.
    f.culprit = FaultyField::kSourceId;
    f.convicted_object = ctx.fid(e.src);
    f.convicted_id_field = true;
    const Gid phantom = find_phantom_pointback(ctx, e.dst, e.kind);
    if (phantom != kInvalidGid && !ctx.resolved_phantoms.contains(phantom)) {
      f.repair = {RepairKind::kOverwriteId, ctx.fid(e.src), ctx.fid(phantom),
                  kNullFid, e.kind, ctx.fid(e.dst),
                  "rewrite corrupted id to the id the neighbour references"};
      f.note = "source id rank below threshold; expected id recovered from "
               "neighbour's point-back";
    } else {
      f.repair = {RepairKind::kQuarantineLostFound, ctx.fid(e.src), kNullFid,
                  kNullFid, e.kind, kNullFid,
                  "id convicted but the intended id is not recoverable"};
      f.note = "source id rank below threshold; no phantom point-back found";
    }
  } else if (target_prop < threshold) {
    f.culprit = FaultyField::kTargetProperty;
    f.convicted_object = ctx.fid(e.dst);
    f.convicted_id_field = false;
    f.repair = {RepairKind::kAddBackPointer, ctx.fid(e.dst), ctx.fid(e.src),
                kNullFid, paired_kind(e.kind), kNullFid,
                "restore lost point-back from the referencing object's id"};
    f.note = "target property rank below threshold";
  } else {
    f.culprit = FaultyField::kUndetermined;
    f.repair.kind = RepairKind::kNone;
    f.note = "both candidate fields above threshold";
  }
  out.push_back(std::move(f));
}

/// Double Reference, flavour 1: several sources claim the same
/// exclusive relationship with v ("a's property duplicates c's").
void handle_over_reference(Ctx& ctx, Gid v, std::vector<Finding>& out) {
  const Csr& rev = ctx.graph.reverse();
  const Csr& fwd = ctx.graph.forward();
  for (const EdgeKind kind : {EdgeKind::kDirent, EdgeKind::kLovEa}) {
    // Nearly every vertex has at most one claim of a kind: count them
    // first and gather the claimants only when there are two or more.
    std::size_t claims = 0;
    for (auto slot = rev.edges_begin(v); slot < rev.edges_end(v); ++slot) {
      if (rev.kind(slot) == kind) ++claims;
    }
    if (claims < 2) continue;
    std::vector<Gid> claimants;
    claimants.reserve(claims);
    for (auto slot = rev.edges_begin(v); slot < rev.edges_end(v); ++slot) {
      if (rev.kind(slot) == kind) claimants.push_back(rev.target(slot));
    }

    // A claim v acknowledges with a point-back of the matching kind is
    // legitimate — hard links give a file several DIRENT parents, all
    // answered by LinkEA records. Each claimant keeps as many claim
    // instances as v acknowledges; if v acknowledges nobody, the most
    // credible claimant keeps one (the rule-free tie-break); every
    // remaining instance is a duplicate to convict.
    std::unordered_map<Gid, std::uint64_t> keep_budget;
    std::uint64_t total_acks = 0;
    for (const Gid u : claimants) {
      if (keep_budget.contains(u)) continue;
      std::uint64_t acks = 0;
      for (auto slot = fwd.edges_begin(v); slot < fwd.edges_end(v); ++slot) {
        if (fwd.target(slot) == u && fwd.kind(slot) == paired_kind(kind)) {
          ++acks;
        }
      }
      keep_budget[u] = acks;
      total_acks += acks;
    }
    if (total_acks == 0) {
      Gid fallback = kInvalidGid;
      double best = -1.0;
      for (const Gid u : claimants) {
        if (ctx.prop_rank(u) > best) {
          best = ctx.prop_rank(u);
          fallback = u;
        }
      }
      if (fallback != kInvalidGid) keep_budget[fallback] = 1;
    }
    // Everything acknowledged and nothing duplicated? Healthy links.
    for (const Gid u : claimants) {
      if (keep_budget[u] > 0) {
        --keep_budget[u];
        continue;
      }
      Finding f;
      f.category = InconsistencyCategory::kDoubleReference;
      f.culprit = FaultyField::kSourceProperty;
      f.convicted_object = ctx.fid(u);
      f.convicted_id_field = false;
      f.source = ctx.fid(u);
      f.target = ctx.fid(v);
      f.edge_kind = kind;
      fill_rank_evidence(ctx, u, v, f);
      // Prefer redirecting the duplicate claim to an orphan that still
      // points back at the claimant — that orphan is the object the
      // claim was stolen from.
      Gid orphan = kInvalidGid;
      if (const auto it = ctx.incoming.find(u); it != ctx.incoming.end()) {
        for (const UnpairedEdge* back : it->second) {
          if (back->kind != paired_kind(kind)) continue;
          if (!ctx.scanned(back->src)) continue;
          if (ctx.graph.paired_in_degree(back->src) != 0) continue;
          orphan = back->src;
          break;
        }
      }
      if (orphan != kInvalidGid) {
        f.repair = {RepairKind::kRelinkProperty, ctx.fid(u), ctx.fid(orphan),
                    ctx.fid(v), kind, kNullFid,
                    "redirect duplicate claim back to the orphan that still "
                    "points at the claimant"};
        f.note = "duplicate claim; orphaned counterpart recovered";
      } else {
        f.repair = {RepairKind::kRemoveReference, ctx.fid(u), ctx.fid(v),
                    kNullFid, kind, kNullFid,
                    "remove duplicate claim on an exclusively-owned object"};
        f.note = "duplicate claim; no orphaned counterpart found";
      }
      out.push_back(std::move(f));
    }
  }
}

/// Double Reference, flavour 2: two physical objects were scanned with
/// the same FID ("b's id duplicates c's").
void handle_id_collision(Ctx& ctx, Gid v, std::vector<Finding>& out) {
  Finding f;
  f.category = InconsistencyCategory::kDoubleReference;
  f.culprit = FaultyField::kTargetId;
  f.convicted_object = ctx.fid(v);
  f.convicted_id_field = true;
  f.target = ctx.fid(v);
  f.edge_kind = EdgeKind::kGeneric;
  f.target_id_rank = ctx.id_rank(v);
  f.target_prop_rank = ctx.prop_rank(v);

  // The duplicate object still points back at its true owner, and that
  // owner still references the id the duplicate *used* to carry — now a
  // dangling phantom. Walk v's unpaired point-backs to find the owner,
  // then the owner's dangling reference of the matching kind.
  const Csr& fwd = ctx.graph.forward();
  for (auto slot = fwd.edges_begin(v); slot < fwd.edges_end(v); ++slot) {
    if (ctx.graph.paired(slot)) continue;
    const EdgeKind back_kind = fwd.kind(slot);
    const Gid owner = fwd.target(slot);
    if (!ctx.scanned(owner)) continue;
    const EdgeKind claim_kind = paired_kind(back_kind);
    for (auto s2 = fwd.edges_begin(owner); s2 < fwd.edges_end(owner); ++s2) {
      if (ctx.graph.paired(s2)) continue;
      if (fwd.kind(s2) != claim_kind) continue;
      const Gid phantom = fwd.target(s2);
      if (ctx.scanned(phantom)) continue;
      f.source = ctx.fid(owner);
      ctx.resolved_phantoms.insert(phantom);
      f.repair = {RepairKind::kOverwriteId, ctx.fid(v), ctx.fid(phantom),
                  kNullFid, claim_kind, ctx.fid(owner),
                  "re-identify the duplicate object with the id its owner "
                  "still references"};
      f.note = "two objects share one id; missing id recovered from the "
               "owner's dangling reference";
      out.push_back(std::move(f));
      return;
    }
  }

  f.repair = {RepairKind::kQuarantineLostFound, ctx.fid(v), kNullFid, kNullFid,
              EdgeKind::kGeneric, kNullFid,
              "duplicate id with no recoverable intended id"};
  f.note = "two objects share one id; intended id not recoverable";
  out.push_back(std::move(f));
}

/// Complete orphan: scanned, no edges at all. There is no evidence to
/// reconstruct ownership — quarantine, exactly the case the paper says
/// needs user input.
void handle_isolated(Ctx& ctx, Gid v, std::vector<Finding>& out) {
  Finding f;
  f.category = InconsistencyCategory::kUnreferencedObject;
  f.culprit = FaultyField::kUndetermined;
  f.target = ctx.fid(v);
  f.target_id_rank = ctx.id_rank(v);
  f.target_prop_rank = ctx.prop_rank(v);
  f.repair = {RepairKind::kQuarantineLostFound, ctx.fid(v), kNullFid, kNullFid,
              EdgeKind::kGeneric, kNullFid,
              "no edges reference or leave this object"};
  f.note = "isolated object; ownership unrecoverable from metadata";
  out.push_back(std::move(f));
}

/// Beyond the paper (§VI limitation): a directory cycle whose members
/// all pair with each other is invisible to edge pairing. Detect it by
/// reachability: BFS from the root over DIRENT edges, then walk each
/// unreachable directory's parent chain — revisiting a vertex before
/// reaching a reachable one proves a cycle. One representative per
/// cycle (its minimum-gid member) is quarantined; detaching it from its
/// in-cycle parent breaks the loop, and re-homing it under lost+found
/// makes the whole subtree reachable again.
void handle_namespace_cycles(Ctx& ctx, std::vector<Finding>& out) {
  const Gid root = ctx.graph.vertices().lookup(ctx.config.root);
  if (root == kInvalidGid) return;

  const std::size_t n = ctx.graph.vertex_count();
  std::vector<std::uint8_t> reachable(n, 0);
  std::vector<Gid> queue = {root};
  reachable[root] = 1;
  const Csr& fwd = ctx.graph.forward();
  while (!queue.empty()) {
    const Gid v = queue.back();
    queue.pop_back();
    for (auto slot = fwd.edges_begin(v); slot < fwd.edges_end(v); ++slot) {
      if (fwd.kind(slot) != EdgeKind::kDirent) continue;
      const Gid child = fwd.target(slot);
      if (!reachable[child]) {
        reachable[child] = 1;
        queue.push_back(child);
      }
    }
  }

  std::unordered_set<Gid> reported_cycles;
  for (Gid v = 0; v < n; ++v) {
    if (reachable[v] || !ctx.scanned(v)) continue;
    if (ctx.graph.vertices().kind_of(v) != ObjectKind::kDirectory) continue;
    // Walk the parent chain (first LinkEA edge) collecting the path.
    std::vector<Gid> path;
    std::unordered_set<Gid> on_path;
    Gid current = v;
    while (true) {
      if (reachable[current]) break;  // chain exits to healthy space
      if (on_path.contains(current)) {
        // Found a cycle: collect its members (the path suffix starting
        // at `current`) and report its minimum-gid representative once.
        Gid representative = current;
        bool in_cycle = false;
        for (const Gid node : path) {
          if (node == current) in_cycle = true;
          if (in_cycle) representative = std::min(representative, node);
        }
        if (reported_cycles.insert(representative).second) {
          Finding f;
          f.category = InconsistencyCategory::kNamespaceCycle;
          f.culprit = FaultyField::kSourceProperty;
          f.convicted_object = ctx.fid(representative);
          f.convicted_id_field = false;
          f.target = ctx.fid(representative);
          f.target_id_rank = ctx.id_rank(representative);
          f.target_prop_rank = ctx.prop_rank(representative);
          f.repair = {RepairKind::kQuarantineLostFound,
                      ctx.fid(representative), kNullFid, kNullFid,
                      EdgeKind::kDirent, kNullFid,
                      "break the directory cycle and re-home its subtree"};
          f.note = "directory cycle detached from the root namespace";
          out.push_back(std::move(f));
        }
        break;
      }
      on_path.insert(current);
      path.push_back(current);
      // First LinkEA parent; a directory without one is an orphan the
      // other handlers already cover.
      Gid parent = kInvalidGid;
      for (auto slot = fwd.edges_begin(current); slot < fwd.edges_end(current);
           ++slot) {
        if (fwd.kind(slot) == EdgeKind::kLinkEa) {
          parent = fwd.target(slot);
          break;
        }
      }
      if (parent == kInvalidGid || !ctx.scanned(parent)) break;
      current = parent;
    }
  }
}

}  // namespace

DetectionReport detect_inconsistencies(const UnifiedGraph& graph,
                                       const FaultyRankResult& ranks,
                                       const DetectorConfig& config) {
  Ctx ctx{graph, ranks, config, {}, {}, {}};
  for (const UnpairedEdge& e : graph.unpaired_edges()) {
    ctx.incoming[e.dst].push_back(&e);
  }

  DetectionReport report;

  const std::size_t n = graph.vertex_count();

  // Id collisions first: their repairs resolve specific phantom ids,
  // which the edge-level handlers must not fight over.
  for (Gid v = 0; v < n; ++v) {
    if (ctx.scanned(v) && graph.vertices().scan_count(v) > 1) {
      handle_id_collision(ctx, v, report.findings);
    }
  }

  // Edge-level findings, in deterministic unpaired-edge order.
  for (const UnpairedEdge& e : graph.unpaired_edges()) {
    if (!ctx.scanned(e.dst)) {
      handle_dangling(ctx, e, report.findings);
    } else {
      handle_mismatch(ctx, e, report.findings);
    }
  }

  // Remaining vertex-level findings.
  for (Gid v = 0; v < n; ++v) {
    if (!ctx.scanned(v)) continue;
    handle_over_reference(ctx, v, report.findings);
    const bool isolated = ctx.in_degree(v) == 0 &&
                          graph.forward().out_degree(v) == 0 &&
                          ctx.fid(v) != config.root;
    if (isolated) handle_isolated(ctx, v, report.findings);
  }

  // Namespace reachability (only meaningful when a root is known).
  if (!config.root.is_null()) {
    handle_namespace_cycles(ctx, report.findings);
  }

  // Conservative degraded-coverage post-pass: any finding whose
  // endpoints, convicted object, or repair operands touch the lost
  // region cannot be verified against what is actually on the missing
  // server — demote it to report-only. (The dangling handler catches
  // the common case inline; this sweep guarantees no repair anywhere
  // is justified by evidence the scan never saw.)
  if (!config.coverage.complete()) {
    for (Finding& f : report.findings) {
      if (f.unverifiable) continue;
      const bool touches_lost =
          config.coverage.fid_lost(f.source) ||
          config.coverage.fid_lost(f.target) ||
          config.coverage.fid_lost(f.convicted_object) ||
          config.coverage.fid_lost(f.repair.target) ||
          config.coverage.fid_lost(f.repair.value) ||
          config.coverage.fid_lost(f.repair.stale);
      if (!touches_lost) continue;
      f.unverifiable = true;
      f.repair.kind = RepairKind::kNone;
      if (!f.note.empty()) f.note += "; ";
      f.note += "evidence touches lost scan coverage";
    }
  }

  return report;
}

}  // namespace faultyrank
