// The simulated ldiskfs inode.
//
// One struct covers MDT namespace objects (directories, files) and OST
// data objects; which EA fields are populated depends on the type,
// mirroring how Lustre overloads local inodes (paper §II-A).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/fid.h"
#include "pfs/ea.h"

namespace faultyrank {

enum class InodeType : std::uint8_t {
  kDirectory = 0,
  kRegular = 1,
  kOstObject = 2,
};

struct Inode {
  std::uint64_t ino = 0;  ///< local inode number (unique per image)
  InodeType type = InodeType::kRegular;
  bool in_use = false;

  // ---- extended attributes ----
  Fid lma_fid;                          ///< LMA: the object's own FID
  std::vector<LinkEaEntry> link_ea;     ///< MDT objects: parent links
  std::optional<LovEa> lov_ea;          ///< MDT regular files: layout
  std::optional<FilterFid> filter_fid;  ///< OST objects: owner pointer

  // ---- directory payload (data blocks, not EA) ----
  std::vector<DirentEntry> dirents;     ///< directories only

  // ---- plain attributes (realism for the namespace generator) ----
  std::uint64_t size_bytes = 0;
  std::uint64_t mtime = 0;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;

  /// Approximate size of the directory data blocks holding `dirents`.
  [[nodiscard]] std::uint64_t dirent_bytes() const noexcept {
    std::uint64_t total = 0;
    for (const auto& entry : dirents) total += 48 + entry.name.size();
    return total;
  }
};

}  // namespace faultyrank
