// The simulated Lustre cluster: one or more MDTs (DNE — Lustre's
// Distributed NamEspace) plus N OSTs, with POSIX-ish namespace
// operations that maintain the full redundant-metadata web of Fig. 1:
//   mkdir/create  → DIRENT entry on the parent + LinkEA on the child
//   create(size)  → LOVEA layout on the file + filter_fid point-backs
//                   on every allocated OST object
//
// With several MDTs, new directories are placed round-robin across
// them (DNE "remote directories"), so DIRENT/LinkEA pairs routinely
// cross metadata servers; files always live on their parent's MDT.
// FIDs route to their home MDT by sequence, as Lustre's FLDB does.
//
// Striping follows the paper's evaluation setup: with stripe_count = -1
// a file stripes over all OSTs round-robin; the number of OST objects
// actually allocated is ⌈size / stripe_size⌉ capped at the stripe width
// (the paper's "files larger than 512 KB create the same number of
// stripes regardless of actual size" shrink trick), with a 1-object
// minimum for empty files.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/fid.h"
#include "pfs/changelog.h"
#include "pfs/crash.h"
#include "pfs/server.h"

namespace faultyrank {

struct StripePolicy {
  std::uint32_t stripe_size = 1u << 20;  ///< bytes per stripe chunk
  std::int32_t stripe_count = 1;         ///< -1 = use every OST
};

class ClusterError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class LustreCluster {
 public:
  explicit LustreCluster(std::size_t ost_count, StripePolicy policy = {},
                         std::size_t mdt_count = 1);

  [[nodiscard]] const Fid& root() const noexcept {
    return mdts_[0]->root_fid;
  }

  /// Creates a directory under `parent`; returns its FID. With several
  /// MDTs the new directory lands on the next MDT round-robin.
  Fid mkdir(const Fid& parent, const std::string& name);

  /// Creates a regular file of `size` bytes under `parent` (on the
  /// parent's MDT), allocating stripe objects per the effective policy.
  Fid create_file(const Fid& parent, const std::string& name,
                  std::uint64_t size,
                  std::optional<StripePolicy> override_policy = std::nullopt);

  /// Adds a hard link: a second DIRENT entry for an existing regular
  /// file, answered by an additional LinkEA record — exactly how Lustre
  /// represents multiple names for one object. Directories cannot be
  /// hard-linked.
  void link(const Fid& existing, const Fid& parent, const std::string& name);

  /// Removes one name of a file (freeing its OST objects only when the
  /// last link goes away) or an empty directory.
  void unlink(const Fid& parent, const std::string& name);

  /// Moves one name: the child's LinkEA record is rewritten, a DIRENT
  /// appears under `new_parent`, the changelog records the move, and
  /// the old DIRENT goes away — in that order, so a crash mid-rename
  /// leaves the classic double-entry / mismatched-LinkEA states.
  /// Directories may be renamed (DNE: possibly across MDTs); the child
  /// is returned.
  Fid rename(const Fid& old_parent, const std::string& old_name,
             const Fid& new_parent, const std::string& new_name);

  /// Resolves an absolute "/a/b/c" path; throws ClusterError if absent.
  [[nodiscard]] Fid resolve(std::string_view path) const;

  /// mkdir for every missing component of an absolute directory path.
  Fid mkdir_p(std::string_view path);

  /// Looks up an MDT object's inode by FID, routing to its home MDT.
  [[nodiscard]] const Inode* stat(const Fid& fid) const;

  /// The ".lustre/lost+found" directory, created on first use.
  Fid lost_found();

  // ---- server access ----
  [[nodiscard]] MdtServer& mdt() noexcept { return *mdts_[0]; }
  [[nodiscard]] const MdtServer& mdt() const noexcept { return *mdts_[0]; }
  [[nodiscard]] std::size_t mdt_count() const noexcept {
    return mdts_.size();
  }
  [[nodiscard]] MdtServer& mdt_server(std::size_t i) { return *mdts_.at(i); }
  [[nodiscard]] const MdtServer& mdt_server(std::size_t i) const {
    return *mdts_.at(i);
  }
  [[nodiscard]] std::vector<OstServer>& osts() noexcept { return osts_; }
  [[nodiscard]] const std::vector<OstServer>& osts() const noexcept {
    return osts_;
  }
  [[nodiscard]] OstServer& ost(std::size_t i) { return osts_.at(i); }

  // ---- servers by slot: MDTs in index order, then OSTs ----
  // The one server order: scans, repairs and the online checker all
  // number servers by slot.
  [[nodiscard]] std::size_t server_count() const noexcept {
    return mdts_.size() + osts_.size();
  }
  [[nodiscard]] LdiskfsImage& image(std::size_t slot);
  [[nodiscard]] const LdiskfsImage& image(std::size_t slot) const;
  [[nodiscard]] const FidAllocator& fids(std::size_t slot) const;

  /// Routes a FID to the MDT whose sequence range owns it; nullptr for
  /// non-MDT sequences (bogus fids, OST objects).
  [[nodiscard]] MdtServer* mdt_for(const Fid& fid) noexcept;
  [[nodiscard]] const MdtServer* mdt_for(const Fid& fid) const noexcept;

  /// OI lookup on the owning MDT (any MDT when routing fails).
  [[nodiscard]] Inode* find_mdt_inode(const Fid& fid);
  [[nodiscard]] const Inode* find_mdt_inode(const Fid& fid) const;

  [[nodiscard]] const StripePolicy& default_policy() const noexcept {
    return policy_;
  }

  [[nodiscard]] std::uint64_t mdt_inodes_used() const noexcept;
  [[nodiscard]] std::uint64_t total_ost_objects() const noexcept;

  /// Starts recording namespace mutations into `log` (pass nullptr to
  /// stop). The log must outlive the attachment. Only logical namespace
  /// operations are recorded — raw EA edits (fault injection, repairs)
  /// bypass it, exactly as on-disk corruption bypasses a real
  /// changelog.
  void attach_changelog(ChangeLog* log) noexcept { changelog_ = log; }
  [[nodiscard]] ChangeLog* changelog() const noexcept { return changelog_; }

  /// Installs a crash-point observer (pass nullptr to detach). The hook
  /// fires at every FR_CRASH_POINT inside namespace ops and may throw
  /// CrashUnwind to abandon the op half-applied (see pfs/crash.h). The
  /// hook must outlive the attachment. Not serialized with snapshots.
  void attach_crash_hook(CrashHook* hook) noexcept { crash_hook_ = hook; }

 private:
  // Snapshot persistence reconstructs private state directly.
  friend std::vector<std::uint8_t> serialize_cluster(
      const LustreCluster& cluster);
  friend LustreCluster deserialize_cluster(
      const std::vector<std::uint8_t>& bytes);

  /// Uninitialized shell used only by load_cluster.
  LustreCluster() = default;

  /// Body of FR_CRASH_POINT: forwards to the attached hook, if any.
  void crash_step(const char* op, const char* point) {
    if (crash_hook_ != nullptr) crash_hook_->reached({op, point});
  }

  Inode& mdt_inode_or_throw(const Fid& fid, const char* what);
  [[nodiscard]] const Inode& mdt_inode_or_throw(const Fid& fid,
                                                const char* what) const;
  /// Number of OST objects to allocate for a file of `size` bytes.
  [[nodiscard]] std::uint32_t object_count(std::uint64_t size,
                                           const StripePolicy& policy) const;

  // unique_ptr keeps servers address-stable so callers may hold
  // references across namespace operations.
  std::vector<std::unique_ptr<MdtServer>> mdts_;
  std::vector<OstServer> osts_;
  StripePolicy policy_;
  std::uint64_t next_ost_ = 0;  ///< round-robin start for stripe layout
  std::uint64_t next_mdt_ = 0;  ///< round-robin for new directories
  Fid lost_found_fid_;
  ChangeLog* changelog_ = nullptr;    ///< not owned; may be null
  CrashHook* crash_hook_ = nullptr;   ///< not owned; may be null
};

}  // namespace faultyrank
