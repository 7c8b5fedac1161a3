#include "lfsck/lfsck.h"

#include <algorithm>

#include "common/sim_clock.h"
#include "common/timer.h"

namespace faultyrank {

std::size_t LfsckResult::count(LfsckActionKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [kind](const LfsckEvent& e) { return e.kind == kind; }));
}

namespace {

// ---- Cost model (paper §V-C2), calibrated against Table VI's
// ~0.33 ms/inode aggregate rate ----
/// Random metadata read per inode visited (LFSCK walks inodes
/// individually rather than streaming whole tables).
constexpr double kInodeReadSeconds = 40e-6;
/// Per-inode checking logic.
constexpr double kPerInodeCpuSeconds = 10e-6;
/// Synchronous MDS↔OSS verification round trip per referenced object.
constexpr RpcModel kRpc{.round_trip_seconds = 20e-6};
/// Multiplier for the blocking between LFSCK's coupled kernel threads
/// ("any delay in the pipeline may block others significantly").
constexpr double kPipelineStallFactor = 1.3;

/// Moves an unnamed MDT object into lost+found (LFSCK's catch-all).
void mdt_orphan_to_lost_found(LustreCluster& cluster, const Fid& fid,
                              LfsckResult& result) {
  const Fid lost_found = cluster.lost_found();
  Inode* inode = cluster.find_mdt_inode(fid);
  if (inode == nullptr) return;
  const std::string name = "lf_" + fid.to_string();
  inode->link_ea = {{lost_found, name}};
  Inode* lf = cluster.find_mdt_inode(lost_found);
  lf->dirents.push_back({name, fid, inode->ino});
  result.events.push_back({LfsckActionKind::kMdtOrphanToLostFound, fid,
                           lost_found, "no directory names this object"});
}

/// Stubs an unclaimed OST object into lost+found (what LFSCK's layout
/// phase does with orphans).
void ost_orphan_to_lost_found(LustreCluster& cluster, OstServer& ost,
                              const Fid& object_fid, LfsckResult& result) {
  const Fid lost_found = cluster.lost_found();
  MdtServer* lf_home = cluster.mdt_for(lost_found);
  const std::string name = "lfobj_" + object_fid.to_string();
  Inode& stub = lf_home->image.allocate(InodeType::kRegular);
  stub.lma_fid = lf_home->fids.next();
  stub.link_ea.push_back({lost_found, name});
  stub.lov_ea = LovEa{cluster.default_policy().stripe_size, 1,
                      {{object_fid, ost.index}}};
  lf_home->image.oi_insert(stub.lma_fid, stub.ino);
  Inode* lf = lf_home->image.find_by_fid(lost_found);
  lf->dirents.push_back({name, stub.lma_fid, stub.ino});
  if (Inode* object = ost.image.find_by_fid(object_fid)) {
    object->filter_fid = FilterFid{stub.lma_fid, 0};
  }
  result.events.push_back({LfsckActionKind::kOrphanToLostFound, object_fid,
                           stub.lma_fid, "no file claims this object"});
}

/// Phase 1: layout consistency, driven from the MDS ("whatever is
/// stored in MDS … should overwrite the counterpart").
void phase1_layout(LustreCluster& cluster, const LfsckConfig& config,
                   LfsckResult& result) {
  // Snapshot each MDT's inode range: repairs may allocate new inodes,
  // which a single sequential pass would not revisit.
  for (std::size_t m = 0; m < cluster.mdt_count(); ++m) {
  const std::uint64_t mdt_slots = cluster.mdt_server(m).image.inode_slots();
  for (std::uint64_t ino = 1; ino <= mdt_slots; ++ino) {
    const Inode* inode = cluster.mdt_server(m).image.find(ino);
    if (inode == nullptr) continue;
    ++result.inodes_checked;
    if (inode->type != InodeType::kRegular || !inode->lov_ea.has_value()) {
      continue;
    }
    const Fid file_fid = inode->lma_fid;
    // Work over value copies: repairs can reallocate the tables.
    const LovEa layout = *inode->lov_ea;
    for (std::uint32_t k = 0; k < layout.stripes.size(); ++k) {
      const LovEaEntry slot = layout.stripes[k];
      ++result.rpcs_issued;  // one verification round trip per slot
      if (slot.ost_index >= cluster.osts().size()) {
        result.events.push_back({LfsckActionKind::kSkipped, file_fid,
                                 slot.stripe, "LOVEA names an invalid OST"});
        continue;
      }
      OstServer& ost = cluster.ost(slot.ost_index);
      Inode* object = ost.image.find_by_fid(slot.stripe);
      if (object == nullptr) {
        // Dangling reference. LFSCK trusts the MDS: re-create an empty
        // object under the expected id. (If the real root cause was a
        // corrupted LOVEA or object id, the data is NOT recovered — the
        // stranded object will surface as an orphan below.)
        if (config.repair) {
          Inode& recreated = ost.image.allocate(InodeType::kOstObject);
          recreated.lma_fid = slot.stripe;
          recreated.filter_fid = FilterFid{file_fid, k};
          ost.image.oi_insert(slot.stripe, recreated.ino);
        }
        result.events.push_back({LfsckActionKind::kRecreateOstObject,
                                 slot.stripe, file_fid,
                                 "LOVEA slot resolved to no object"});
        continue;
      }
      const bool pointback_ok = object->filter_fid.has_value() &&
                                object->filter_fid->parent == file_fid &&
                                object->filter_fid->stripe_index == k;
      if (!pointback_ok) {
        // Mismatch: overwrite the OST-side point-back from the MDS
        // value, never questioning the MDS side (Table I, row 7/8).
        if (config.repair) {
          object->filter_fid = FilterFid{file_fid, k};
        }
        result.events.push_back({LfsckActionKind::kOverwriteFilterFid,
                                 object->lma_fid, file_fid,
                                 "filter_fid did not match the MDS layout"});
      }
    }
  }
  }

  // Orphan sweep: every OST object must be claimed by the file its
  // filter_fid names.
  for (std::size_t i = 0; i < cluster.osts().size(); ++i) {
    const std::uint64_t ost_slots = cluster.ost(i).image.inode_slots();
    for (std::uint64_t ino = 1; ino <= ost_slots; ++ino) {
      // Re-fetch the server each iteration: lost+found stubs allocate
      // MDT inodes but OST tables can also grow from phase-1 re-creates
      // that happened before this sweep.
      OstServer& ost = cluster.ost(i);
      const Inode* object = ost.image.find(ino);
      if (object == nullptr) continue;
      ++result.inodes_checked;
      ++result.rpcs_issued;  // claim-verification round trip
      const Fid object_fid = object->lma_fid;
      bool claimed = false;
      if (object->filter_fid.has_value()) {
        const Inode* owner =
            cluster.find_mdt_inode(object->filter_fid->parent);
        if (owner != nullptr && owner->lov_ea.has_value()) {
          claimed = std::any_of(owner->lov_ea->stripes.begin(),
                                owner->lov_ea->stripes.end(),
                                [&](const LovEaEntry& slot) {
                                  return slot.stripe == object_fid;
                                });
        }
      }
      if (!claimed) {
        if (config.repair) {
          ost_orphan_to_lost_found(cluster, ost, object_fid, result);
        } else {
          result.events.push_back({LfsckActionKind::kOrphanToLostFound,
                                   object_fid, kNullFid,
                                   "(dry run) unclaimed object"});
        }
      }
    }
  }
}

/// Phase 2: namespace consistency, trusting DIRENTs over LinkEAs.
void phase2_namespace(LustreCluster& cluster, const LfsckConfig& config,
                      LfsckResult& result) {
  for (std::size_t m = 0; m < cluster.mdt_count(); ++m) {
  const std::uint64_t mdt_slots = cluster.mdt_server(m).image.inode_slots();
  for (std::uint64_t ino = 1; ino <= mdt_slots; ++ino) {
    {
      const Inode* dir = cluster.mdt_server(m).image.find(ino);
      if (dir == nullptr || dir->type != InodeType::kDirectory) continue;
    }
    ++result.inodes_checked;
    // Work over an entry snapshot; we may drop entries as we go.
    const std::vector<DirentEntry> entries =
        cluster.mdt_server(m).image.find(ino)->dirents;
    const Fid dir_fid = cluster.mdt_server(m).image.find(ino)->lma_fid;
    for (const DirentEntry& entry : entries) {
      ++result.rpcs_issued;
      Inode* child = cluster.find_mdt_inode(entry.fid);
      if (child == nullptr) {
        // Dangling DIRENT: the name resolves nowhere. The rule set has
        // no way to find the intended child — drop the entry.
        if (config.repair) {
          Inode* dir = cluster.mdt_server(m).image.find(ino);
          std::erase_if(dir->dirents, [&](const DirentEntry& e) {
            return e.name == entry.name && e.fid == entry.fid;
          });
        }
        result.events.push_back({LfsckActionKind::kRemoveDanglingDirent,
                                 entry.fid, dir_fid,
                                 "entry '" + entry.name + "' resolves nowhere"});
        continue;
      }
      const bool linked = std::any_of(
          child->link_ea.begin(), child->link_ea.end(),
          [&](const LinkEaEntry& link) { return link.parent == dir_fid; });
      if (!linked) {
        // Missing/garbled LinkEA: rebuild from the DIRENT (Table I's one
        // correctly-repaired row).
        if (config.repair) {
          child->link_ea.push_back({dir_fid, entry.name});
        }
        result.events.push_back({LfsckActionKind::kRebuildLinkEa, entry.fid,
                                 dir_fid, "LinkEA rebuilt from DIRENT"});
      }
    }
  }
  }

  // Orphan sweep: every MDT object (except the root and lost+found
  // contents) must be named by some directory.
  const Fid root = cluster.root();
  std::vector<Fid> orphans;
  for (std::size_t m = 0; m < cluster.mdt_count(); ++m) {
  cluster.mdt_server(m).image.for_each_inode([&](const Inode& inode) {
    if (inode.lma_fid == root) return;
    ++result.rpcs_issued;
    bool named = false;
    for (const auto& link : inode.link_ea) {
      const Inode* parent = cluster.find_mdt_inode(link.parent);
      if (parent == nullptr) continue;
      named = std::any_of(parent->dirents.begin(), parent->dirents.end(),
                          [&](const DirentEntry& e) {
                            return e.fid == inode.lma_fid;
                          });
      if (named) break;
    }
    if (!named) orphans.push_back(inode.lma_fid);
  });
  }
  for (const Fid& fid : orphans) {
    if (config.repair) {
      mdt_orphan_to_lost_found(cluster, fid, result);
    } else {
      result.events.push_back({LfsckActionKind::kMdtOrphanToLostFound, fid,
                               kNullFid, "(dry run) unnamed MDT object"});
    }
  }
}

}  // namespace

LfsckResult run_lfsck(LustreCluster& cluster, const LfsckConfig& config) {
  WallTimer timer;
  LfsckResult result;
  phase1_layout(cluster, config, result);
  phase2_namespace(cluster, config, result);
  result.wall_seconds = timer.seconds();

  // Cost model: per-inode random metadata reads + one synchronous RPC
  // per verification, serialized through the coupled pipeline.
  const double io_seconds =
      static_cast<double>(result.inodes_checked) * kInodeReadSeconds;
  const double rpc_seconds = kRpc.calls(result.rpcs_issued);
  const double cpu_seconds =
      static_cast<double>(result.inodes_checked) * kPerInodeCpuSeconds;
  result.sim_seconds =
      kPipelineStallFactor * (io_seconds + rpc_seconds + cpu_seconds);
  return result;
}

}  // namespace faultyrank
