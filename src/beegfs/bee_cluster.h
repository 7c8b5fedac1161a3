// A BeeGFS-flavoured parallel file system substrate (paper §VI,
// "Generality"): same checking problem, different metadata layout.
//
// Where Lustre embeds metadata in inode EAs, BeeGFS stores it as plain
// files on the metadata server's local filesystem:
//   * every namespace object has a string *entry id*;
//   * a directory owns a "dentries" directory holding one dentry file
//     per child, whose content is the child's entry id;
//   * each entry has an inode file carrying xattrs: its own entry id,
//     its parent's entry id, and (for files) the stripe pattern
//     (chunk size + storage-target list);
//   * storage targets hold chunk files *named by the owning file's
//     entry id*, with an origin xattr pointing back at the owner.
//
// The FaultyRank core never sees any of this: the BeeGFS scanner emits
// the same FID-keyed partial graphs, so the rank kernel, detector, and
// category logic run unchanged — which is precisely the paper's
// generality claim. Entry ids are deterministic strings
// ("<seq>-<counter>-bee") mapped 1:1 onto FIDs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fid.h"

namespace faultyrank {

/// Sequence space for BeeGFS entities, disjoint from the Lustre ones.
/// A chunk on target t has sequence kBeeChunkSeqBase + t; a chunk whose
/// file name is not an entry id has kBeeQuarantineSeqBase + t.
inline constexpr std::uint64_t kBeeMetaSeq = 0x300000000ULL;
inline constexpr std::uint64_t kBeeChunkSeqBase = 0x310000000ULL;
inline constexpr std::uint64_t kBeeQuarantineSeqBase = 0xbee0deadULL;

/// BeeGFS entry ids are strings; ours are canonically derived from (and
/// parseable back to) a FID so they can key the shared metadata graph.
[[nodiscard]] std::string entry_id_from_fid(const Fid& fid);
[[nodiscard]] std::optional<Fid> fid_from_entry_id(const std::string& id);

enum class BeeEntryType : std::uint8_t { kDirectory = 0, kFile = 1 };

/// Stripe pattern xattr of a file: which targets hold its chunks.
struct BeeStripePattern {
  std::uint32_t chunk_size = 512 * 1024;
  std::vector<std::uint32_t> targets;  ///< storage target indices

  friend bool operator==(const BeeStripePattern&,
                         const BeeStripePattern&) = default;
};

/// One metadata-server inode file (simulated): the xattrs of the entry.
struct BeeMetaInode {
  std::string entry_id;         ///< xattr: own id
  std::string parent_entry_id;  ///< xattr: parent directory's id
  std::string name;             ///< link name under the parent
  BeeEntryType type = BeeEntryType::kFile;
  std::optional<BeeStripePattern> pattern;  ///< files only
  std::uint64_t size_bytes = 0;
  bool in_use = false;
};

/// The metadata server: an inode-file table plus per-directory dentry
/// maps (child name → dentry file content, i.e. the child's entry id).
struct BeeMetaServer {
  std::vector<BeeMetaInode> inodes;  // slot = allocation order
  /// dentries[dir entry id][child name] = child entry id
  std::map<std::string, std::map<std::string, std::string>> dentries;
  std::uint32_t next_entry = 0;

  [[nodiscard]] BeeMetaInode* find(const std::string& entry_id);
  [[nodiscard]] const BeeMetaInode* find(const std::string& entry_id) const;
};

/// One chunk file on a storage target. The *file name* is the owner's
/// entry id (BeeGFS's convention) and doubles as the chunk's
/// referencable identity: a file's layout points at "my chunk on
/// target t", so the chunk graph vertex is keyed by (target, name).
/// The origin xattr is the point-back fsck uses.
struct BeeChunkFile {
  std::string name;             ///< owner's entry id (the file name)
  std::string xattr_origin;     ///< xattr: owning entry id
  std::uint64_t size_bytes = 0;
  bool in_use = false;
};

struct BeeStorageTarget {
  std::uint32_t index = 0;
  std::vector<BeeChunkFile> chunks;
  std::uint32_t next_chunk = 0;
};

class BeeClusterError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class BeeCluster {
 public:
  explicit BeeCluster(std::size_t target_count,
                      BeeStripePattern default_pattern = {});

  [[nodiscard]] const std::string& root() const noexcept { return root_id_; }

  std::string mkdir(const std::string& parent_id, const std::string& name);
  std::string create_file(const std::string& parent_id,
                          const std::string& name, std::uint64_t size);
  void unlink(const std::string& parent_id, const std::string& name);

  [[nodiscard]] BeeMetaServer& meta() noexcept { return meta_; }
  [[nodiscard]] const BeeMetaServer& meta() const noexcept { return meta_; }
  [[nodiscard]] std::vector<BeeStorageTarget>& targets() noexcept {
    return targets_;
  }
  [[nodiscard]] const std::vector<BeeStorageTarget>& targets() const noexcept {
    return targets_;
  }

  [[nodiscard]] std::uint64_t meta_inodes_used() const noexcept;
  [[nodiscard]] std::uint64_t total_chunks() const noexcept;

 private:
  [[nodiscard]] std::string allocate_entry_id();

  BeeMetaServer meta_;
  std::vector<BeeStorageTarget> targets_;
  BeeStripePattern default_pattern_;
  std::string root_id_;
  std::uint64_t next_target_ = 0;
};

}  // namespace faultyrank
