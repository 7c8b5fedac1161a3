// FID → GID remapping (paper §IV-B).
//
// Lustre FIDs are sparse 128-bit identifiers; the rank kernel wants
// dense 0…N-1 vertex ids for CSR indexing. The table interns FIDs in
// first-seen order (deterministic for a fixed aggregation order) and
// remembers, per vertex, whether the object was actually scanned on
// some server or is only known as an edge target (a phantom — the
// signature of a dangling reference).
//
// Thread discipline (DESIGN.md §8): deliberately unsynchronized. One
// thread interns (UnifiedGraph::aggregate); after that the table is
// read-only and may be shared freely. A mutex here would serialize the
// intern hot path for no correctness gain, so fr_lint's
// mutex-needs-guards rule has nothing to see — exclusive ownership, not
// locking, is the protocol.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/fid.h"
#include "graph/types.h"

namespace faultyrank {

class VertexTable {
 public:
  /// Pre-sizes the table for `expected` vertices (one rehash, one grow).
  void reserve(std::size_t expected) {
    index_.reserve(expected);
    fids_.reserve(expected);
    kinds_.reserve(expected);
    scanned_.reserve(expected);
  }
  /// Interns `fid` as a scanned object of the given kind. If the FID was
  /// previously seen only as an edge target, it is upgraded from phantom.
  Gid intern_scanned(const Fid& fid, ObjectKind kind);

  /// Interns `fid` as an edge endpoint; creates a phantom if unseen.
  Gid intern_referenced(const Fid& fid);

  /// Returns the GID for `fid`, or kInvalidGid if never interned.
  [[nodiscard]] Gid lookup(const Fid& fid) const;

  [[nodiscard]] const Fid& fid_of(Gid gid) const { return fids_[gid]; }
  [[nodiscard]] ObjectKind kind_of(Gid gid) const { return kinds_[gid]; }
  [[nodiscard]] bool is_scanned(Gid gid) const { return scanned_[gid] != 0; }

  /// How many scanned objects carried this FID. A value > 1 means two
  /// physical objects share one id — the Double Reference
  /// "b's id duplicates c's" signature.
  [[nodiscard]] std::uint32_t scan_count(Gid gid) const {
    return scanned_[gid];
  }

  [[nodiscard]] std::size_t size() const noexcept { return fids_.size(); }

  [[nodiscard]] std::uint64_t bytes() const noexcept;

 private:
  Gid push_new(const Fid& fid, ObjectKind kind, bool scanned);

  std::unordered_map<Fid, Gid, FidHash> index_;
  std::vector<Fid> fids_;
  std::vector<ObjectKind> kinds_;
  std::vector<std::uint8_t> scanned_;  // scan count, saturating at 255
};

}  // namespace faultyrank
