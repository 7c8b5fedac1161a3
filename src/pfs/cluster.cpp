#include "pfs/cluster.h"

#include <algorithm>

namespace faultyrank {

namespace {

/// Finds a dirent by name; nullptr if absent.
const DirentEntry* find_dirent(const Inode& dir, std::string_view name) {
  for (const auto& entry : dir.dirents) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

}  // namespace

// Names a crash point between two sub-updates of a namespace op (see
// pfs/crash.h). Every multi-sub-update mutation sequence MUST thread
// its steps through this macro — fr_analyze's crash-point-required rule
// enforces it for src/pfs/.
#define FR_CRASH_POINT(op, point) crash_step(op, point)

LustreCluster::LustreCluster(std::size_t ost_count, StripePolicy policy,
                             std::size_t mdt_count)
    : policy_(policy) {
  if (ost_count == 0) {
    throw ClusterError("cluster: need at least one OST");
  }
  if (mdt_count == 0) {
    throw ClusterError("cluster: need at least one MDT");
  }
  if (policy_.stripe_size == 0) {
    throw ClusterError("cluster: stripe_size must be > 0");
  }
  mdts_.reserve(mdt_count);
  for (std::size_t i = 0; i < mdt_count; ++i) {
    mdts_.push_back(std::make_unique<MdtServer>(
        "mds" + std::to_string(i), static_cast<std::uint32_t>(i)));
  }
  osts_.reserve(ost_count);
  for (std::size_t i = 0; i < ost_count; ++i) {
    osts_.emplace_back("oss" + std::to_string(i),
                       static_cast<std::uint32_t>(i));
  }
  // Root directory lives on MDT0. A real Lustre root has the well-known
  // FID [0x200000007:0x1:0x0]; we allocate from the MDT sequence
  // instead, which changes nothing structurally.
  Inode& root = mdts_[0]->image.allocate(InodeType::kDirectory);
  root.lma_fid = mdts_[0]->fids.next();
  mdts_[0]->image.oi_insert(root.lma_fid, root.ino);
  mdts_[0]->root_fid = root.lma_fid;
}

LdiskfsImage& LustreCluster::image(std::size_t slot) {
  return slot < mdts_.size() ? mdts_[slot]->image
                             : osts_.at(slot - mdts_.size()).image;
}

const LdiskfsImage& LustreCluster::image(std::size_t slot) const {
  return const_cast<LustreCluster*>(this)->image(slot);
}

const FidAllocator& LustreCluster::fids(std::size_t slot) const {
  return slot < mdts_.size() ? mdts_[slot]->fids
                             : osts_.at(slot - mdts_.size()).fids;
}

MdtServer* LustreCluster::mdt_for(const Fid& fid) noexcept {
  if (fid.seq < kMdtSeq || fid.seq >= kMdtSeq + mdts_.size()) return nullptr;
  return mdts_[fid.seq - kMdtSeq].get();
}

const MdtServer* LustreCluster::mdt_for(const Fid& fid) const noexcept {
  if (fid.seq < kMdtSeq || fid.seq >= kMdtSeq + mdts_.size()) return nullptr;
  return mdts_[fid.seq - kMdtSeq].get();
}

Inode* LustreCluster::find_mdt_inode(const Fid& fid) {
  if (MdtServer* home = mdt_for(fid)) {
    return home->image.find_by_fid(fid);
  }
  // Unroutable sequence (e.g. a corrupted id): the OI of every MDT may
  // still resolve a stale mapping.
  for (auto& mdt : mdts_) {
    if (Inode* inode = mdt->image.find_by_fid(fid)) return inode;
  }
  return nullptr;
}

const Inode* LustreCluster::find_mdt_inode(const Fid& fid) const {
  return const_cast<LustreCluster*>(this)->find_mdt_inode(fid);
}

Inode& LustreCluster::mdt_inode_or_throw(const Fid& fid, const char* what) {
  Inode* inode = find_mdt_inode(fid);
  if (inode == nullptr) {
    throw ClusterError(std::string(what) + ": no MDT object " +
                       fid.to_string());
  }
  return *inode;
}

const Inode& LustreCluster::mdt_inode_or_throw(const Fid& fid,
                                               const char* what) const {
  const Inode* inode = find_mdt_inode(fid);
  if (inode == nullptr) {
    throw ClusterError(std::string(what) + ": no MDT object " +
                       fid.to_string());
  }
  return *inode;
}

Fid LustreCluster::mkdir(const Fid& parent, const std::string& name) {
  Inode& dir = mdt_inode_or_throw(parent, "mkdir");
  if (dir.type != InodeType::kDirectory) {
    throw ClusterError("mkdir: parent is not a directory");
  }
  if (find_dirent(dir, name) != nullptr) {
    throw ClusterError("mkdir: name exists: " + name);
  }
  // DNE placement: new directories round-robin across MDTs.
  MdtServer& home = *mdts_[next_mdt_ % mdts_.size()];
  next_mdt_ = (next_mdt_ + 1) % mdts_.size();
  FR_CRASH_POINT("mkdir", "alloc");
  Inode& child = home.image.allocate(InodeType::kDirectory);
  child.lma_fid = home.fids.next();
  FR_CRASH_POINT("mkdir", "linkea");
  child.link_ea.push_back({parent, name});
  FR_CRASH_POINT("mkdir", "oi-insert");
  home.image.oi_insert(child.lma_fid, child.ino);
  // Re-fetch the parent: allocate() may have grown its inode table.
  Inode& dir2 = mdt_inode_or_throw(parent, "mkdir");
  const Fid child_fid = child.lma_fid;
  FR_CRASH_POINT("mkdir", "dirent");
  dir2.dirents.push_back({name, child_fid, child.ino});
  FR_CRASH_POINT("mkdir", "changelog");
  if (changelog_ != nullptr) {
    changelog_->append({0, ChangeOp::kMkdir, child_fid, parent, name,
                        InodeType::kDirectory, {}});
  }
  return child_fid;
}

std::uint32_t LustreCluster::object_count(std::uint64_t size,
                                          const StripePolicy& policy) const {
  const std::uint32_t width =
      policy.stripe_count < 0
          ? static_cast<std::uint32_t>(osts_.size())
          : std::min<std::uint32_t>(
                static_cast<std::uint32_t>(policy.stripe_count),
                static_cast<std::uint32_t>(osts_.size()));
  const std::uint64_t chunks =
      (size + policy.stripe_size - 1) / policy.stripe_size;
  // The paper's shrink model: ⌈size/stripe_size⌉ objects capped at the
  // stripe width; ≥ 1 so empty files still own an object.
  return static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(chunks, 1, std::max<std::uint32_t>(width, 1)));
}

Fid LustreCluster::create_file(const Fid& parent, const std::string& name,
                               std::uint64_t size,
                               std::optional<StripePolicy> override_policy) {
  Inode& dir = mdt_inode_or_throw(parent, "create");
  if (dir.type != InodeType::kDirectory) {
    throw ClusterError("create: parent is not a directory");
  }
  if (find_dirent(dir, name) != nullptr) {
    throw ClusterError("create: name exists: " + name);
  }
  const StripePolicy policy = override_policy.value_or(policy_);

  // Files live on their parent directory's MDT.
  MdtServer* home = mdt_for(parent);
  if (home == nullptr) home = mdts_[0].get();
  FR_CRASH_POINT("create", "alloc");
  Inode& file = home->image.allocate(InodeType::kRegular);
  const Fid file_fid = home->fids.next();
  const std::uint64_t file_ino = file.ino;
  file.lma_fid = file_fid;
  FR_CRASH_POINT("create", "linkea");
  file.link_ea.push_back({parent, name});
  file.size_bytes = size;
  FR_CRASH_POINT("create", "oi-insert");
  home->image.oi_insert(file_fid, file_ino);

  LovEa layout;
  layout.stripe_size = policy.stripe_size;
  layout.stripe_count = policy.stripe_count;
  const std::uint32_t objects = object_count(size, policy);
  layout.stripes.reserve(objects);
  for (std::uint32_t k = 0; k < objects; ++k) {
    const auto ost_index =
        static_cast<std::uint32_t>((next_ost_ + k) % osts_.size());
    // Simulated data share: the k-th object holds every k-th chunk.
    const std::uint64_t chunks =
        (size + policy.stripe_size - 1) / policy.stripe_size;
    const std::uint64_t own_chunks = chunks / objects +
                                     (k < chunks % objects ? 1 : 0);
    FR_CRASH_POINT("create", "object");
    const Fid stripe = osts_[ost_index].create_object(
        file_fid, k, own_chunks * policy.stripe_size);
    layout.stripes.push_back({stripe, ost_index});
  }
  next_ost_ = (next_ost_ + 1) % osts_.size();

  Inode& file2 = *home->image.find(file_ino);
  FR_CRASH_POINT("create", "lovea");
  file2.lov_ea = std::move(layout);
  Inode& dir2 = mdt_inode_or_throw(parent, "create");
  FR_CRASH_POINT("create", "dirent");
  dir2.dirents.push_back({name, file_fid, file_ino});
  FR_CRASH_POINT("create", "changelog");
  if (changelog_ != nullptr) {
    changelog_->append({0, ChangeOp::kCreateFile, file_fid, parent, name,
                        InodeType::kRegular, file2.lov_ea->stripes});
  }
  return file_fid;
}

void LustreCluster::link(const Fid& existing, const Fid& parent,
                         const std::string& name) {
  Inode& file = mdt_inode_or_throw(existing, "link");
  if (file.type != InodeType::kRegular) {
    throw ClusterError("link: hard links to directories are not allowed");
  }
  Inode& dir = mdt_inode_or_throw(parent, "link");
  if (dir.type != InodeType::kDirectory) {
    throw ClusterError("link: parent is not a directory");
  }
  if (find_dirent(dir, name) != nullptr) {
    throw ClusterError("link: name exists: " + name);
  }
  FR_CRASH_POINT("hardlink", "linkea");
  file.link_ea.push_back({parent, name});
  FR_CRASH_POINT("hardlink", "dirent");
  dir.dirents.push_back({name, existing, file.ino});
  FR_CRASH_POINT("hardlink", "changelog");
  if (changelog_ != nullptr) {
    changelog_->append({0, ChangeOp::kHardLink, existing, parent, name,
                        InodeType::kRegular, {}});
  }
}

void LustreCluster::unlink(const Fid& parent, const std::string& name) {
  Inode& dir = mdt_inode_or_throw(parent, "unlink");
  const auto it =
      std::find_if(dir.dirents.begin(), dir.dirents.end(),
                   [&name](const DirentEntry& e) { return e.name == name; });
  if (it == dir.dirents.end()) {
    throw ClusterError("unlink: no such entry: " + name);
  }
  const Fid child_fid = it->fid;
  Inode& child = mdt_inode_or_throw(child_fid, "unlink");
  const InodeType child_type = child.type;
  std::vector<LovEaEntry> freed_stripes;
  bool removes_object = true;
  if (child.type == InodeType::kDirectory) {
    if (!child.dirents.empty()) {
      throw ClusterError("unlink: directory not empty: " + name);
    }
  } else {
    // Drop this name's LinkEA record; the object survives while other
    // hard links remain.
    FR_CRASH_POINT("unlink", "linkea");
    std::erase_if(child.link_ea, [&](const LinkEaEntry& link) {
      return link.parent == parent && link.name == name;
    });
    removes_object = child.link_ea.empty();
    if (removes_object && child.lov_ea.has_value()) {
      freed_stripes = child.lov_ea->stripes;
      for (const auto& slot : child.lov_ea->stripes) {
        FR_CRASH_POINT("unlink", "object");
        OstServer& ost = osts_.at(slot.ost_index);
        if (const Inode* obj = ost.image.find_by_fid(slot.stripe)) {
          ost.image.release(obj->ino);
        }
      }
    }
  }
  if (removes_object) {
    MdtServer* child_home = mdt_for(child_fid);
    if (child_home == nullptr) {
      throw ClusterError("unlink: cannot route child fid");
    }
    FR_CRASH_POINT("unlink", "release-child");
    child_home->image.release(child.ino);
  }
  FR_CRASH_POINT("unlink", "changelog");
  if (changelog_ != nullptr) {
    ChangeRecord record{0,          ChangeOp::kUnlink, child_fid, parent,
                        name,       child_type,        std::move(freed_stripes)};
    record.removes_object = removes_object;
    changelog_->append(std::move(record));
  }
  // Re-fetch the parent and drop the entry.
  Inode& dir2 = mdt_inode_or_throw(parent, "unlink");
  FR_CRASH_POINT("unlink", "dirent");
  dir2.dirents.erase(
      std::find_if(dir2.dirents.begin(), dir2.dirents.end(),
                   [&name](const DirentEntry& e) { return e.name == name; }));
}

Fid LustreCluster::rename(const Fid& old_parent, const std::string& old_name,
                          const Fid& new_parent, const std::string& new_name) {
  Inode& src_dir = mdt_inode_or_throw(old_parent, "rename");
  const DirentEntry* entry = find_dirent(src_dir, old_name);
  if (entry == nullptr) {
    throw ClusterError("rename: no such entry: " + old_name);
  }
  const Fid child_fid = entry->fid;
  const std::uint64_t child_ino = entry->ino;
  Inode& dst_dir = mdt_inode_or_throw(new_parent, "rename");
  if (dst_dir.type != InodeType::kDirectory) {
    throw ClusterError("rename: new parent is not a directory");
  }
  if (find_dirent(dst_dir, new_name) != nullptr) {
    throw ClusterError("rename: name exists: " + new_name);
  }
  Inode& child = mdt_inode_or_throw(child_fid, "rename");
  const InodeType child_type = child.type;
  // Sub-update order mirrors the constructive ops: child-side EA first,
  // destination DIRENT, changelog, and only then the source DIRENT —
  // so a crash mid-rename leaves a double entry or a LinkEA that
  // disagrees with the surviving DIRENT, never a lost child.
  FR_CRASH_POINT("rename", "linkea");
  for (auto& link : child.link_ea) {
    if (link.parent == old_parent && link.name == old_name) {
      link = {new_parent, new_name};
      break;
    }
  }
  FR_CRASH_POINT("rename", "dirent-add");
  dst_dir.dirents.push_back({new_name, child_fid, child_ino});
  FR_CRASH_POINT("rename", "changelog");
  if (changelog_ != nullptr) {
    ChangeRecord record{0,          ChangeOp::kRename, child_fid, new_parent,
                        new_name,   child_type,        {}};
    record.removes_object = false;
    record.src_parent = old_parent;
    record.src_name = old_name;
    changelog_->append(std::move(record));
  }
  FR_CRASH_POINT("rename", "dirent-remove");
  Inode& src2 = mdt_inode_or_throw(old_parent, "rename");
  src2.dirents.erase(std::find_if(
      src2.dirents.begin(), src2.dirents.end(),
      [&](const DirentEntry& e) {
        return e.name == old_name && e.fid == child_fid;
      }));
  return child_fid;
}

Fid LustreCluster::resolve(std::string_view path) const {
  if (path.empty() || path.front() != '/') {
    throw ClusterError("resolve: path must be absolute");
  }
  Fid current = root();
  std::size_t pos = 1;
  while (pos < path.size()) {
    const std::size_t slash = path.find('/', pos);
    const std::string_view component =
        path.substr(pos, slash == std::string_view::npos ? slash : slash - pos);
    pos = slash == std::string_view::npos ? path.size() : slash + 1;
    if (component.empty()) continue;
    const Inode& dir = mdt_inode_or_throw(current, "resolve");
    const DirentEntry* entry = find_dirent(dir, component);
    if (entry == nullptr) {
      throw ClusterError("resolve: no entry '" + std::string(component) +
                         "' in " + current.to_string());
    }
    current = entry->fid;
  }
  return current;
}

Fid LustreCluster::mkdir_p(std::string_view path) {
  if (path.empty() || path.front() != '/') {
    throw ClusterError("mkdir_p: path must be absolute");
  }
  Fid current = root();
  std::size_t pos = 1;
  while (pos < path.size()) {
    const std::size_t slash = path.find('/', pos);
    const std::string_view component =
        path.substr(pos, slash == std::string_view::npos ? slash : slash - pos);
    pos = slash == std::string_view::npos ? path.size() : slash + 1;
    if (component.empty()) continue;
    const Inode& dir = mdt_inode_or_throw(current, "mkdir_p");
    if (const DirentEntry* entry = find_dirent(dir, component)) {
      current = entry->fid;
    } else {
      current = mkdir(current, std::string(component));
    }
  }
  return current;
}

const Inode* LustreCluster::stat(const Fid& fid) const {
  return find_mdt_inode(fid);
}

Fid LustreCluster::lost_found() {
  if (!lost_found_fid_.is_null()) return lost_found_fid_;
  lost_found_fid_ = mkdir_p("/.lustre/lost+found");
  return lost_found_fid_;
}

std::uint64_t LustreCluster::mdt_inodes_used() const noexcept {
  std::uint64_t total = 0;
  for (const auto& mdt : mdts_) total += mdt->image.inodes_in_use();
  return total;
}

std::uint64_t LustreCluster::total_ost_objects() const noexcept {
  std::uint64_t total = 0;
  for (const auto& ost : osts_) total += ost.image.inodes_in_use();
  return total;
}

}  // namespace faultyrank
