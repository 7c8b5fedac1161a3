// A user-space stand-in for an ldiskfs (ext4) volume.
//
// Inodes live in fixed-size block groups, allocated first-fit; the raw
// scan API iterates the inode table in block-group order — exactly the
// traversal the FaultyRank scanner performs on a real disk image
// (superblock → block group → inode table, paper §IV-A). A separate
// Object Index (OI) maps FID → inode number for logical lookups, and —
// deliberately — goes stale when the fault injector corrupts an LMA fid
// behind its back, just like the on-disk OI files would.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fid.h"
#include "common/serdes.h"
#include "pfs/inode.h"

namespace faultyrank {

class LdiskfsImage {
 public:
  explicit LdiskfsImage(std::string label,
                        std::uint32_t inodes_per_group = 8192);

  [[nodiscard]] const std::string& label() const noexcept { return label_; }

  /// Allocates a fresh in-use inode of the given type. Never reuses a
  /// live ino; freed slots are recycled first-fit within their group.
  Inode& allocate(InodeType type);

  /// Marks the inode free and drops it from the OI.
  void release(std::uint64_t ino);

  /// Local lookup by inode number; nullptr if out of range or free.
  [[nodiscard]] Inode* find(std::uint64_t ino);
  [[nodiscard]] const Inode* find(std::uint64_t ino) const;

  /// Logical lookup through the Object Index. Unaware of raw EA edits.
  [[nodiscard]] Inode* find_by_fid(const Fid& fid);
  [[nodiscard]] const Inode* find_by_fid(const Fid& fid) const;

  /// Records fid → ino in the OI (called by namespace ops after they
  /// set an inode's LMA).
  void oi_insert(const Fid& fid, std::uint64_t ino);
  void oi_erase(const Fid& fid);

  /// Full-table scan comparing live LMA fids, for a one-off lookup
  /// when the OI may be stale. O(#inodes); a repair pass that asks
  /// many such questions indexes LMA fids once instead
  /// (RepairExecutor, DESIGN.md §5).
  [[nodiscard]] Inode* find_by_fid_raw(const Fid& fid);
  [[nodiscard]] const Inode* find_by_fid_raw(const Fid& fid) const;

  /// Raw scan: visits every in-use inode in block-group order.
  void for_each_inode(const std::function<void(const Inode&)>& visit) const;

  /// Raw read of one inode-table slot (0-based, in block-group order);
  /// nullptr when the slot is free. The scanner iterates slots itself
  /// so that, under a fault schedule, a faulted read can be retried or
  /// quarantined without abandoning the whole table walk (op_faults
  /// hook).
  [[nodiscard]] const Inode* inode_at(std::uint64_t slot) const noexcept {
    if (slot >= slots_.size() || !slots_[slot].in_use) return nullptr;
    return &slots_[slot];
  }

  [[nodiscard]] std::uint64_t inodes_in_use() const noexcept {
    return in_use_count_;
  }
  [[nodiscard]] std::uint64_t inode_slots() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] std::uint32_t block_groups() const noexcept {
    return static_cast<std::uint32_t>(
        (slots_.size() + inodes_per_group_ - 1) / inodes_per_group_);
  }

  /// Total bytes of inode tables the raw scanner must stream (all
  /// slots, used or not — a raw scan reads whole tables).
  [[nodiscard]] std::uint64_t inode_table_bytes() const noexcept {
    return slots_.size() * 512;
  }

  /// Bit-exact snapshot of the whole image (every slot, the free list,
  /// and the OI — including any stale OI entries).
  void serialize(ByteWriter& writer) const;
  [[nodiscard]] static LdiskfsImage deserialize(ByteReader& reader);

 private:
  std::string label_;
  std::uint32_t inodes_per_group_;
  std::vector<Inode> slots_;            // index = ino - 1 (ino 0 invalid)
  std::vector<std::uint64_t> free_list_;
  std::uint64_t in_use_count_ = 0;
  std::unordered_map<Fid, std::uint64_t, FidHash> oi_;
};

}  // namespace faultyrank
