#include "beegfs/bee_repair_executor.h"

#include <algorithm>

#include "beegfs/bee_scanner.h"

namespace faultyrank {

namespace {

/// True when `fid` names a namespace entry (dir/file) on the meta
/// server rather than a chunk.
bool is_meta_fid(const Fid& fid) { return fid.seq == kBeeMetaSeq; }

}  // namespace

int BeeRepairExecutor::target_of(const Fid& fid) const {
  const std::uint64_t targets = cluster_.targets().size();
  for (const std::uint64_t base : {kBeeChunkSeqBase, kBeeQuarantineSeqBase}) {
    if (fid.seq >= base && fid.seq - base < targets) {
      return static_cast<int>(fid.seq - base);
    }
  }
  return -1;
}

BeeChunkFile* BeeRepairExecutor::find_chunk(const Fid& identity) {
  const int target = target_of(identity);
  if (target < 0) return nullptr;
  for (BeeChunkFile& chunk :
       cluster_.targets()[static_cast<std::size_t>(target)].chunks) {
    if (chunk.in_use &&
        chunk_identity(static_cast<std::uint32_t>(target), chunk.name) ==
            identity) {
      return &chunk;
    }
  }
  return nullptr;
}

RepairOutcome BeeRepairExecutor::apply(const RepairAction& action) {
  switch (action.kind) {
    case RepairKind::kAddBackPointer: return add_back_pointer(action);
    case RepairKind::kOverwriteId: return overwrite_id(action);
    case RepairKind::kRelinkProperty: return relink_property(action);
    case RepairKind::kRemoveReference: return remove_reference(action);
    case RepairKind::kQuarantineLostFound: return quarantine(action);
    case RepairKind::kNone: return success(action, "report-only");
  }
  return failure(action, "unknown repair kind");
}

std::vector<RepairOutcome> BeeRepairExecutor::apply_all(
    const RepairPlan& plan) {
  std::vector<RepairOutcome> outcomes;
  outcomes.reserve(plan.size());
  for (const RepairAction& action : plan) outcomes.push_back(apply(action));
  return outcomes;
}

RepairOutcome BeeRepairExecutor::add_back_pointer(const RepairAction& action) {
  switch (action.edge_kind) {
    case EdgeKind::kLinkEa: {
      BeeMetaInode* inode =
          cluster_.meta().find(entry_id_from_fid(action.target));
      if (inode == nullptr) return failure(action, "entry not found");
      const std::string parent_id = entry_id_from_fid(action.value);
      inode->parent_entry_id = parent_id;
      // Recover the link name from the parent's dentries if present.
      const auto dentries = cluster_.meta().dentries.find(parent_id);
      if (dentries != cluster_.meta().dentries.end()) {
        for (const auto& [name, child] : dentries->second) {
          if (child == inode->entry_id) {
            inode->name = name;
            break;
          }
        }
      }
      return success(action, "parent xattr restored");
    }
    case EdgeKind::kDirent: {
      BeeMetaInode* child =
          cluster_.meta().find(entry_id_from_fid(action.value));
      if (child == nullptr) return failure(action, "child entry not found");
      auto& dentries =
          cluster_.meta().dentries[entry_id_from_fid(action.target)];
      std::string name =
          child->name.empty() ? "recovered_" + child->entry_id : child->name;
      if (dentries.contains(name) && dentries[name] != child->entry_id) {
        name += "_recovered";
      }
      dentries[name] = child->entry_id;
      return success(action, "dentry restored as '" + name + "'");
    }
    case EdgeKind::kObjParent: {
      BeeChunkFile* chunk = find_chunk(action.target);
      if (chunk == nullptr) return failure(action, "chunk not found");
      chunk->xattr_origin = entry_id_from_fid(action.value);
      return success(action, "origin xattr restored");
    }
    case EdgeKind::kLovEa: {
      BeeMetaInode* file =
          cluster_.meta().find(entry_id_from_fid(action.target));
      if (file == nullptr || !file->pattern.has_value()) {
        return failure(action, "file or pattern not found");
      }
      // The chunk identity must belong to this file (same entry oid).
      if (action.value.oid != action.target.oid) {
        return failure(action, "chunk identity names a different entry");
      }
      const int target_index = target_of(action.value);
      if (target_index < 0) return failure(action, "bad chunk identity");
      auto& targets = file->pattern->targets;
      if (std::find(targets.begin(), targets.end(),
                    static_cast<std::uint32_t>(target_index)) ==
          targets.end()) {
        targets.push_back(static_cast<std::uint32_t>(target_index));
      }
      return success(action, "stripe target restored");
    }
    case EdgeKind::kGeneric:
      return failure(action, "cannot add a generic back pointer");
  }
  return failure(action, "unhandled edge kind");
}

RepairOutcome BeeRepairExecutor::overwrite_id(const RepairAction& action) {
  if (is_meta_fid(action.target)) {
    BeeMetaInode* inode =
        cluster_.meta().find(entry_id_from_fid(action.target));
    if (inode == nullptr) return failure(action, "entry not found");
    const std::string old_id = inode->entry_id;
    const std::string new_id = entry_id_from_fid(action.value);
    inode->entry_id = new_id;
    if (inode->type == BeeEntryType::kDirectory) {
      auto node = cluster_.meta().dentries.extract(old_id);
      if (!node.empty()) {
        node.key() = new_id;
        cluster_.meta().dentries.insert(std::move(node));
      }
    }
    return success(action, "entry id rewritten");
  }
  // Chunk identity: rename the chunk file back to the expected owner.
  BeeChunkFile* chunk = find_chunk(action.target);
  if (chunk == nullptr) return failure(action, "chunk not found");
  if (target_of(action.value) != target_of(action.target)) {
    return failure(action, "identity names a different target");
  }
  chunk->name = entry_id_from_fid(Fid{kBeeMetaSeq, action.value.oid, 0});
  return success(action, "chunk file renamed");
}

RepairOutcome BeeRepairExecutor::relink_property(const RepairAction& action) {
  switch (action.edge_kind) {
    case EdgeKind::kDirent: {
      auto& dentries =
          cluster_.meta().dentries[entry_id_from_fid(action.target)];
      const std::string stale_id = entry_id_from_fid(action.stale);
      for (auto& [name, child] : dentries) {
        if (child == stale_id) {
          child = entry_id_from_fid(action.value);
          return success(action, "dentry relinked");
        }
      }
      return failure(action, "no dentry references the stale id");
    }
    case EdgeKind::kLovEa: {
      BeeMetaInode* file =
          cluster_.meta().find(entry_id_from_fid(action.target));
      if (file == nullptr || !file->pattern.has_value()) {
        return failure(action, "file or pattern not found");
      }
      const int stale_target = target_of(action.stale);
      const int new_target = target_of(action.value);
      if (stale_target < 0 || new_target < 0) {
        return failure(action, "bad chunk identity");
      }
      if (action.value.oid != action.target.oid) {
        return failure(action, "chunk identity names a different entry");
      }
      for (auto& target : file->pattern->targets) {
        if (target == static_cast<std::uint32_t>(stale_target)) {
          target = static_cast<std::uint32_t>(new_target);
          return success(action, "stripe target relinked");
        }
      }
      return failure(action, "no stripe slot on the stale target");
    }
    case EdgeKind::kLinkEa: {
      BeeMetaInode* inode =
          cluster_.meta().find(entry_id_from_fid(action.target));
      if (inode == nullptr) return failure(action, "entry not found");
      if (inode->parent_entry_id != entry_id_from_fid(action.stale)) {
        return failure(action, "parent xattr does not match the stale id");
      }
      inode->parent_entry_id = entry_id_from_fid(action.value);
      return success(action, "parent xattr relinked");
    }
    case EdgeKind::kObjParent: {
      BeeChunkFile* chunk = find_chunk(action.target);
      if (chunk == nullptr) return failure(action, "chunk not found");
      if (chunk->xattr_origin != entry_id_from_fid(action.stale)) {
        return failure(action, "origin xattr does not match the stale id");
      }
      chunk->xattr_origin = entry_id_from_fid(action.value);
      return success(action, "origin xattr relinked");
    }
    case EdgeKind::kGeneric:
      return failure(action, "cannot relink a generic property");
  }
  return failure(action, "unhandled edge kind");
}

RepairOutcome BeeRepairExecutor::remove_reference(const RepairAction& action) {
  switch (action.edge_kind) {
    case EdgeKind::kDirent: {
      auto& dentries =
          cluster_.meta().dentries[entry_id_from_fid(action.target)];
      const std::string child_id = entry_id_from_fid(action.value);
      for (auto it = dentries.begin(); it != dentries.end(); ++it) {
        if (it->second == child_id) {
          dentries.erase(it);
          return success(action, "dentry removed");
        }
      }
      return failure(action, "no dentry references the id");
    }
    case EdgeKind::kLovEa: {
      BeeMetaInode* file =
          cluster_.meta().find(entry_id_from_fid(action.target));
      if (file == nullptr || !file->pattern.has_value()) {
        return failure(action, "file or pattern not found");
      }
      const int target = target_of(action.value);
      if (target < 0) return failure(action, "bad chunk identity");
      auto& targets = file->pattern->targets;
      const auto it = std::find(targets.begin(), targets.end(),
                                static_cast<std::uint32_t>(target));
      if (it == targets.end()) {
        return failure(action, "no stripe slot on that target");
      }
      targets.erase(it);
      return success(action, "stripe target removed");
    }
    case EdgeKind::kLinkEa: {
      BeeMetaInode* inode =
          cluster_.meta().find(entry_id_from_fid(action.target));
      if (inode == nullptr) return failure(action, "entry not found");
      if (inode->parent_entry_id != entry_id_from_fid(action.value)) {
        return failure(action, "parent xattr does not match");
      }
      inode->parent_entry_id.clear();
      return success(action, "parent xattr cleared");
    }
    case EdgeKind::kObjParent: {
      BeeChunkFile* chunk = find_chunk(action.target);
      if (chunk == nullptr) return failure(action, "chunk not found");
      if (chunk->xattr_origin != entry_id_from_fid(action.value)) {
        return failure(action, "origin xattr does not match");
      }
      chunk->xattr_origin.clear();
      return success(action, "origin xattr cleared");
    }
    case EdgeKind::kGeneric:
      return failure(action, "cannot remove a generic reference");
  }
  return failure(action, "unhandled edge kind");
}

RepairOutcome BeeRepairExecutor::quarantine(const RepairAction& action) {
  if (!is_meta_fid(action.target)) {
    return failure(action,
                   "chunk quarantine requires an owner stub; not supported "
                   "on this substrate");
  }
  BeeMetaInode* inode = cluster_.meta().find(entry_id_from_fid(action.target));
  if (inode == nullptr) return failure(action, "entry not found");
  // Ensure /lost+found exists.
  std::string lost_found;
  const auto& root_dentries = cluster_.meta().dentries[cluster_.root()];
  const auto it = root_dentries.find("lost+found");
  if (it != root_dentries.end()) {
    lost_found = it->second;
  } else {
    lost_found = cluster_.mkdir(cluster_.root(), "lost+found");
  }
  const std::string name = "lf_" + inode->entry_id;
  inode->parent_entry_id = lost_found;
  inode->name = name;
  cluster_.meta().dentries[lost_found][name] = inode->entry_id;
  return success(action, "moved to lost+found");
}

}  // namespace faultyrank
