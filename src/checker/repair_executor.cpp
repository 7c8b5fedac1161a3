#include "checker/repair_executor.h"

#include <algorithm>
#include <span>
#include <unordered_map>

namespace faultyrank {

namespace {

/// A claimant packs (server position, ino) so that ascending order is
/// the order a raw scan meets inodes: server by server, MDTs first,
/// then slot by slot (ino = slot + 1).
constexpr unsigned kServerShift = 48;
constexpr std::uint64_t kInoMask = (std::uint64_t{1} << kServerShift) - 1;

std::uint64_t pack(std::size_t server, std::uint64_t ino) {
  return (static_cast<std::uint64_t>(server) << kServerShift) | ino;
}

}  // namespace

/// LMA fid → the in-use inodes carrying it, in raw-scan order
/// (DESIGN.md §5). Each server's own fid sequence gets a direct run of
/// one entry per oid, sized to its allocator cursor plus the plan's
/// quarantine count, so the fids a plan mints (lost+found stubs,
/// re-identified orphans) stay direct. All runs share one block.
/// Versioned and foreign fids, and any fid two inodes carry at once,
/// live in a small hash map.
class RepairExecutor::ClaimantIndex {
 public:
  ClaimantIndex(const LustreCluster& cluster, std::size_t headroom) {
    const std::size_t servers = cluster.server_count();
    std::uint64_t table_slots = 0;
    for (std::size_t server = 0; server < servers; ++server) {
      table_slots += cluster.image(server).inode_slots();
    }
    std::size_t run_end = 0;
    for (std::size_t server = 0; server < servers; ++server) {
      const FidAllocator& fids = cluster.fids(server);
      // A cursor far past every inode slot (a corrupt snapshot) must
      // not size a run; fids past a run's end go to the map instead.
      const std::uint64_t cursor =
          std::min<std::uint64_t>(fids.allocated(), 4 * table_slots);
      runs_.push_back({fids.seq(), run_end, cursor + headroom + 1});
      run_end += cursor + headroom + 1;
    }
    entries_.assign(run_end, 0);
    for (std::size_t server = 0; server < servers; ++server) {
      const LdiskfsImage& image = cluster.image(server);
      for (std::uint64_t slot = 0; slot < image.inode_slots(); ++slot) {
        if (const Inode* inode = image.inode_at(slot)) {
          add(inode->lma_fid, pack(server, inode->ino));
        }
      }
    }
  }

  [[nodiscard]] std::span<const std::uint64_t> of(const Fid& fid) {
    if (const std::uint64_t* entry = direct(fid);
        entry != nullptr && *entry != kSpilled) {
      return {entry, *entry == 0 ? 0u : 1u};
    }
    const auto it = spill_.find(fid);
    if (it == spill_.end()) return {};
    return it->second;
  }

  void add(const Fid& fid, std::uint64_t claimant) {
    if (std::uint64_t* entry = direct(fid)) {
      if (*entry == 0) {
        *entry = claimant;
        return;
      }
      if (*entry != kSpilled) {
        spill_[fid].push_back(*entry);
        *entry = kSpilled;
      }
    }
    std::vector<std::uint64_t>& list = spill_[fid];
    list.insert(std::upper_bound(list.begin(), list.end(), claimant),
                claimant);
  }

  void remove(const Fid& fid, std::uint64_t claimant) {
    if (std::uint64_t* entry = direct(fid);
        entry != nullptr && *entry != kSpilled) {
      if (*entry == claimant) *entry = 0;
      return;
    }
    if (const auto it = spill_.find(fid); it != spill_.end()) {
      std::erase(it->second, claimant);
    }
  }

 private:
  /// Direct entry: 0 = no claimant, kSpilled = the claimants are in
  /// spill_ (the fid was carried twice at some point).
  static constexpr std::uint64_t kSpilled = ~std::uint64_t{0};

  /// Entries [offset, offset + length) of entries_, indexed by oid.
  struct Run {
    std::uint64_t seq = 0;
    std::size_t offset = 0;
    std::size_t length = 0;
  };

  /// The direct entry of `fid`, or nullptr when it belongs in spill_.
  [[nodiscard]] std::uint64_t* direct(const Fid& fid) {
    if (fid.ver != 0) return nullptr;
    for (Run& run : runs_) {
      if (run.seq == fid.seq) {
        return fid.oid < run.length ? &entries_[run.offset + fid.oid]
                                    : nullptr;
      }
    }
    return nullptr;
  }

  std::vector<Run> runs_;  ///< one per server, in position order
  std::vector<std::uint64_t> entries_;
  std::unordered_map<Fid, std::vector<std::uint64_t>, FidHash> spill_;
};

RepairExecutor::RepairExecutor(LustreCluster& cluster) : cluster_(cluster) {}

RepairExecutor::~RepairExecutor() = default;

RepairExecutor::Located RepairExecutor::located(std::size_t server,
                                                Inode& inode) {
  const std::size_t mdts = cluster_.mdt_count();
  return {&cluster_.image(server), &inode, server < mdts,
          server < mdts ? 0 : cluster_.osts()[server - mdts].index, server};
}

RepairExecutor::ClaimantIndex& RepairExecutor::claimant_index() {
  if (index_ == nullptr) {
    index_ = std::make_unique<ClaimantIndex>(cluster_, quarantines_);
  }
  return *index_;
}

RepairExecutor::Located RepairExecutor::carrier(std::uint64_t claimant) {
  const std::size_t server = claimant >> kServerShift;
  return located(server, *cluster_.image(server).find(claimant & kInoMask));
}

void RepairExecutor::set_lma(std::size_t server, Inode& inode,
                             const Fid& fid) {
  if (index_ != nullptr) index_->remove(inode.lma_fid, pack(server, inode.ino));
  inode.lma_fid = fid;
  if (index_ != nullptr) index_->add(fid, pack(server, inode.ino));
}

std::optional<RepairExecutor::Located> RepairExecutor::locate(const Fid& fid) {
  for (std::size_t server = 0; server < cluster_.server_count(); ++server) {
    if (Inode* inode = cluster_.image(server).find_by_fid(fid)) {
      return located(server, *inode);
    }
  }
  // OI miss: the fid may be a corrupted LMA the OI never indexed.
  const auto carriers = claimant_index().of(fid);
  if (carriers.empty()) return std::nullopt;
  return carrier(carriers.front());
}

RepairOutcome RepairExecutor::apply(const RepairAction& action) {
  return apply_all({action}).front();
}

std::vector<RepairOutcome> RepairExecutor::apply_all(const RepairPlan& plan) {
  // The index lives for one call, so it never serves a cluster edited
  // since it was built.
  index_.reset();
  quarantines_ = static_cast<std::size_t>(
      std::count_if(plan.begin(), plan.end(), [](const RepairAction& action) {
        return action.kind == RepairKind::kQuarantineLostFound;
      }));
  std::vector<RepairOutcome> outcomes;
  outcomes.reserve(plan.size());
  for (const auto& action : plan) outcomes.push_back(dispatch(action));
  index_.reset();
  return outcomes;
}

RepairOutcome RepairExecutor::dispatch(const RepairAction& action) {
  switch (action.kind) {
    case RepairKind::kOverwriteId: return overwrite_id(action);
    case RepairKind::kAddBackPointer: return add_back_pointer(action);
    case RepairKind::kRelinkProperty: return relink_property(action);
    case RepairKind::kRemoveReference: return remove_reference(action);
    case RepairKind::kQuarantineLostFound: return quarantine(action);
    case RepairKind::kNone: return success(action, "report-only");
  }
  return failure(action, "unknown repair kind");
}

RepairOutcome RepairExecutor::overwrite_id(const RepairAction& action) {
  // Collect *every* object carrying the target id: under a Double
  // Reference id collision two physical inodes share it, and only the
  // one pointing back at `owner_hint` should be re-identified.
  std::vector<Located> candidates;
  for (const std::uint64_t claimant : claimant_index().of(action.target)) {
    candidates.push_back(carrier(claimant));
  }
  if (candidates.empty()) {
    return failure(action, "no object carries id " + action.target.to_string());
  }
  Located* chosen = &candidates.front();
  if (candidates.size() > 1 && !action.owner_hint.is_null()) {
    for (auto& candidate : candidates) {
      const Inode& inode = *candidate.inode;
      const bool points_at_hint =
          (inode.filter_fid.has_value() &&
           inode.filter_fid->parent == action.owner_hint) ||
          std::any_of(inode.link_ea.begin(), inode.link_ea.end(),
                      [&](const LinkEaEntry& link) {
                        return link.parent == action.owner_hint;
                      });
      if (points_at_hint) {
        chosen = &candidate;
        break;
      }
    }
  }
  Located* located = chosen;
  Inode& inode = *located->inode;
  // Keep the OI coherent: drop any mapping that still resolves to this
  // inode, then index the corrected id.
  located->image->oi_erase(inode.lma_fid);
  located->image->oi_erase(action.target);
  set_lma(located->server, inode, action.value);
  located->image->oi_insert(action.value, inode.ino);
  // If another object legitimately carries the old id (collision case),
  // make sure the OI still resolves it.
  for (auto& candidate : candidates) {
    if (candidate.inode != &inode &&
        candidate.inode->lma_fid == action.target) {
      candidate.image->oi_insert(action.target, candidate.inode->ino);
      break;
    }
  }
  return success(action, "id rewritten to " + action.value.to_string());
}

RepairOutcome RepairExecutor::add_back_pointer(const RepairAction& action) {
  auto located = locate(action.target);
  if (!located) {
    return failure(action, "target object not found");
  }
  Inode& inode = *located->inode;
  switch (action.edge_kind) {
    case EdgeKind::kLinkEa: {
      // Recover the link names from the parent's DIRENT. A child hard-
      // linked into the same directory under several names owns one
      // LinkEA per name, so restore links until the multiplicities
      // match — a single surviving link must not satisfy two dirents,
      // or one dirent edge stays unpaired forever.
      std::vector<std::string> names;
      if (const Inode* parent = cluster_.stat(action.value)) {
        for (const auto& entry : parent->dirents) {
          if (entry.fid == action.target) names.push_back(entry.name);
        }
      }
      if (names.empty()) {
        names.push_back("recovered_" + action.target.to_string());
      }
      std::size_t present = 0;
      for (const auto& link : inode.link_ea) {
        if (link.parent == action.value) ++present;
      }
      const std::size_t needed = names.size();
      std::size_t added = 0;
      std::string last_name;
      for (const std::string& name : names) {
        if (present + added >= needed) break;
        const bool answered = std::any_of(
            inode.link_ea.begin(), inode.link_ea.end(),
            [&](const LinkEaEntry& link) {
              return link.parent == action.value && link.name == name;
            });
        if (answered) continue;
        // A single-parent object with a *wrong* LinkEA gets it
        // replaced; otherwise append.
        if (added == 0 && present == 0 && inode.link_ea.size() == 1 &&
            cluster_.stat(inode.link_ea[0].parent) == nullptr) {
          inode.link_ea[0] = {action.value, name};
        } else {
          inode.link_ea.push_back({action.value, name});
        }
        ++added;
        last_name = name;
      }
      if (added == 0) return success(action, "link already present");
      return success(action, "LinkEA restored (name '" + last_name + "')");
    }
    case EdgeKind::kObjParent: {
      std::uint32_t stripe_index = 0;
      if (const Inode* owner = cluster_.stat(action.value);
          owner != nullptr && owner->lov_ea.has_value()) {
        for (std::size_t k = 0; k < owner->lov_ea->stripes.size(); ++k) {
          if (owner->lov_ea->stripes[k].stripe == action.target) {
            stripe_index = static_cast<std::uint32_t>(k);
            break;
          }
        }
      }
      inode.filter_fid = FilterFid{action.value, stripe_index};
      return success(action, "filter_fid restored");
    }
    case EdgeKind::kDirent: {
      // Planting a dirent on anything but a directory would create an
      // entry no scan reads back — the inconsistency would look
      // repaired here yet persist in every later check.
      if (inode.type != InodeType::kDirectory) {
        return failure(action, "refusing dirent on a non-directory");
      }
      // Recover the child's names from its LinkEA. A child hard-linked
      // into this directory under several names needs one dirent per
      // link, so restore entries until the multiplicities match (the
      // mirror of the kLinkEa case above).
      std::uint64_t child_ino = 0;
      std::vector<std::string> names;
      if (auto child = locate(action.value); child && child->on_mdt) {
        child_ino = child->inode->ino;
        for (const auto& link : child->inode->link_ea) {
          if (link.parent == action.target) names.push_back(link.name);
        }
      }
      if (names.empty()) {
        names.push_back("recovered_" + action.value.to_string());
      }
      std::size_t present = 0;
      for (const auto& entry : inode.dirents) {
        if (entry.fid == action.value) ++present;
      }
      const std::size_t needed = names.size();
      std::size_t added = 0;
      std::string last_name;
      for (std::string name : names) {
        if (present + added >= needed) break;
        const bool answered = std::any_of(
            inode.dirents.begin(), inode.dirents.end(),
            [&](const DirentEntry& e) {
              return e.fid == action.value && e.name == name;
            });
        if (answered) continue;
        // Avoid name collisions with an unrelated entry.
        const bool taken = std::any_of(
            inode.dirents.begin(), inode.dirents.end(),
            [&name](const DirentEntry& e) { return e.name == name; });
        if (taken) name += "_recovered";
        inode.dirents.push_back({name, action.value, child_ino});
        ++added;
        last_name = name;
      }
      if (added == 0) return success(action, "dirent already present");
      return success(action, "dirent restored (name '" + last_name + "')");
    }
    case EdgeKind::kLovEa: {
      if (!inode.lov_ea.has_value()) {
        inode.lov_ea = LovEa{cluster_.default_policy().stripe_size,
                             cluster_.default_policy().stripe_count,
                             {}};
      }
      for (const auto& slot : inode.lov_ea->stripes) {
        if (slot.stripe == action.value) {
          return success(action, "LOVEA slot already present");
        }
      }
      // Find which OST holds the object and its stripe index.
      std::uint32_t ost_index = 0;
      std::uint32_t stripe_index =
          static_cast<std::uint32_t>(inode.lov_ea->stripes.size());
      if (auto object = locate(action.value); object && !object->on_mdt) {
        ost_index = object->ost_index;
        if (object->inode->filter_fid.has_value()) {
          stripe_index = object->inode->filter_fid->stripe_index;
        }
      }
      auto& stripes = inode.lov_ea->stripes;
      const auto pos = std::min<std::size_t>(stripe_index, stripes.size());
      stripes.insert(stripes.begin() + static_cast<std::ptrdiff_t>(pos),
                     {action.value, ost_index});
      return success(action, "LOVEA slot restored");
    }
    case EdgeKind::kGeneric:
      return failure(action, "cannot add a generic back pointer");
  }
  return failure(action, "unhandled edge kind");
}

RepairOutcome RepairExecutor::relink_property(const RepairAction& action) {
  auto located = locate(action.target);
  if (!located) return failure(action, "target object not found");
  Inode& inode = *located->inode;
  switch (action.edge_kind) {
    case EdgeKind::kDirent:
      for (auto& entry : inode.dirents) {
        if (entry.fid == action.stale) {
          entry.fid = action.value;
          if (auto child = locate(action.value); child && child->on_mdt) {
            entry.ino = child->inode->ino;
          }
          return success(action, "dirent relinked");
        }
      }
      return failure(action, "no dirent references the stale id");
    case EdgeKind::kLovEa:
      if (inode.lov_ea.has_value()) {
        for (auto& slot : inode.lov_ea->stripes) {
          if (slot.stripe == action.stale) {
            slot.stripe = action.value;
            if (auto object = locate(action.value); object && !object->on_mdt) {
              slot.ost_index = object->ost_index;
            }
            return success(action, "LOVEA slot relinked");
          }
        }
      }
      return failure(action, "no LOVEA slot references the stale id");
    case EdgeKind::kLinkEa:
      for (auto& link : inode.link_ea) {
        if (link.parent == action.stale) {
          link.parent = action.value;
          return success(action, "LinkEA relinked");
        }
      }
      return failure(action, "no LinkEA references the stale id");
    case EdgeKind::kObjParent:
      if (inode.filter_fid.has_value() &&
          inode.filter_fid->parent == action.stale) {
        inode.filter_fid->parent = action.value;
        return success(action, "filter_fid relinked");
      }
      return failure(action, "filter_fid does not reference the stale id");
    case EdgeKind::kGeneric:
      return failure(action, "cannot relink a generic property");
  }
  return failure(action, "unhandled edge kind");
}

RepairOutcome RepairExecutor::remove_reference(const RepairAction& action) {
  auto located = locate(action.target);
  if (!located) return failure(action, "target object not found");
  Inode& inode = *located->inode;
  const auto drop_one = [&](auto& container, auto predicate) {
    const auto it =
        std::find_if(container.begin(), container.end(), predicate);
    if (it == container.end()) return false;
    container.erase(it);
    return true;
  };
  switch (action.edge_kind) {
    case EdgeKind::kDirent:
      if (drop_one(inode.dirents, [&](const DirentEntry& e) {
            return e.fid == action.value;
          })) {
        return success(action, "dirent removed");
      }
      return failure(action, "no dirent references the id");
    case EdgeKind::kLovEa:
      if (inode.lov_ea.has_value() &&
          drop_one(inode.lov_ea->stripes, [&](const LovEaEntry& e) {
            return e.stripe == action.value;
          })) {
        return success(action, "LOVEA slot removed");
      }
      return failure(action, "no LOVEA slot references the id");
    case EdgeKind::kLinkEa:
      if (drop_one(inode.link_ea, [&](const LinkEaEntry& e) {
            return e.parent == action.value;
          })) {
        return success(action, "LinkEA removed");
      }
      return failure(action, "no LinkEA references the id");
    case EdgeKind::kObjParent:
      if (inode.filter_fid.has_value() &&
          inode.filter_fid->parent == action.value) {
        inode.filter_fid.reset();
        return success(action, "filter_fid cleared");
      }
      return failure(action, "filter_fid does not reference the id");
    case EdgeKind::kGeneric:
      return failure(action, "cannot remove a generic reference");
  }
  return failure(action, "unhandled edge kind");
}

RepairOutcome RepairExecutor::quarantine(const RepairAction& action) {
  // Ensure lost+found exists *before* taking inode references: creating
  // it allocates MDT inodes, which may grow (and move) the inode table
  // and which the claimant index has not seen, so the index is rebuilt.
  const std::uint64_t mdt_inodes = cluster_.mdt_inodes_used();
  const Fid lost_found = cluster_.lost_found();
  if (cluster_.mdt_inodes_used() != mdt_inodes) index_.reset();
  auto located = locate(action.target);
  if (!located) return failure(action, "target object not found");
  Inode& inode = *located->inode;

  MdtServer* lf_home = cluster_.mdt_for(lost_found);
  if (lf_home == nullptr) return failure(action, "lost+found unroutable");

  if (located->on_mdt) {
    // Detach from any parent that still names it, then re-home.
    for (const auto& link : inode.link_ea) {
      if (Inode* parent = cluster_.find_mdt_inode(link.parent)) {
        std::erase_if(parent->dirents, [&](const DirentEntry& e) {
          return e.fid == inode.lma_fid;
        });
      }
    }
    const std::string name = "lf_" + inode.lma_fid.to_string();
    // Re-find by LMA, as a raw scan of the MDTs would: the first
    // carrier, if it lives on an MDT.
    Inode* target = nullptr;
    if (const auto carriers = claimant_index().of(action.target);
        !carriers.empty()) {
      const Located first = carrier(carriers.front());
      if (first.on_mdt) target = first.inode;
    }
    if (target == nullptr) return failure(action, "object vanished");
    target->link_ea = {{lost_found, name}};
    Inode* lf = lf_home->image.find_by_fid(lost_found);
    lf->dirents.push_back({name, target->lma_fid, target->ino});
    return success(action, "moved to lost+found as '" + name + "'");
  }

  // OST object: materialize a stub file in lost+found that owns it, so
  // the user can recover the stripe's data.
  const Fid object_fid = inode.lma_fid;
  const std::uint32_t ost_index = located->ost_index;
  Inode* lf = lf_home->image.find_by_fid(lost_found);
  if (lf == nullptr) return failure(action, "lost+found unavailable");

  // A quarantined object must not keep a *contested* id (another live
  // object carries the same fid): the stub's layout slot would lay a
  // fresh claim on the shared id, the next round's duplicate-claim pass
  // would strip that slot, and the object would orphan again — the two
  // repairs would ping-pong forever. Re-identify this claimant under a
  // fresh id from its OST's allocator; the other claimant keeps the
  // original id and can still pair with whatever references it.
  Fid stub_target = object_fid;
  const std::size_t claimants = claimant_index().of(object_fid).size();
  if (claimants > 1) {
    stub_target = cluster_.ost(ost_index).fids.next();
    if (located->image->find_by_fid(object_fid) == &inode) {
      located->image->oi_erase(object_fid);
    }
    set_lma(located->server, inode, stub_target);
    located->image->oi_insert(stub_target, inode.ino);
  }

  const std::string name = "lfobj_" + stub_target.to_string();
  std::size_t lf_server = 0;
  while (&cluster_.mdt_server(lf_server) != lf_home) ++lf_server;
  Inode& stub = lf_home->image.allocate(InodeType::kRegular);
  set_lma(lf_server, stub, lf_home->fids.next());
  stub.link_ea.push_back({lost_found, name});
  stub.lov_ea = LovEa{cluster_.default_policy().stripe_size, 1,
                      {{stub_target, ost_index}}};
  lf_home->image.oi_insert(stub.lma_fid, stub.ino);
  // Re-fetch lost+found (allocate may have grown the table).
  lf = lf_home->image.find_by_fid(lost_found);
  lf->dirents.push_back({name, stub.lma_fid, stub.ino});
  // Point the orphan back at its new stub owner. `inode` stays valid:
  // the stub allocation touched the MDT image, not this OST's table.
  inode.filter_fid = FilterFid{stub.lma_fid, 0};
  return success(action, claimants > 1
                             ? "orphan re-identified as " +
                                   stub_target.to_string() +
                                   " and stubbed into lost+found"
                             : "orphan object stubbed into lost+found");
}

}  // namespace faultyrank
