// FID → GID remapping (paper §IV-B).
//
// Lustre FIDs are sparse 128-bit identifiers; the rank kernel wants
// dense 0…N-1 vertex ids for CSR indexing. The table interns FIDs in
// first-seen order (deterministic for a fixed aggregation order) and
// remembers, per vertex, whether the object was actually scanned on
// some server or is only known as an edge target (a phantom — the
// signature of a dangling reference).
//
// Index: every server hands out FIDs from its own sequence as oids
// 1, 2, 3, … (pfs/server.h), so a check's FIDs are a few dense
// (seq, oid) runs plus whatever corruption planted. A sizing pass over
// the scanned records gives each sequence one oid-indexed GID array of
// length min(max scanned oid + 1, 2 × scanned ver-0 records of that
// sequence). A FID is interned and looked up by direct addressing when
// its ver is 0 and its oid falls inside its sequence's array; every
// other FID — ver ≠ 0, a sequence with no scanned record, an oid at or
// past the cap — goes to a small overflow hash map. The cap bounds the
// arrays at 2 GIDs per scanned record (plus one 24-byte run header per
// sequence) whatever the input: a corrupt LMA carrying oid 0xffffffff
// lands in overflow instead of forcing a 16 GB array, and the rest of
// its sequence stays direct. An unsized table keeps every FID in
// overflow, which is correct, only slower.
//
// Thread discipline (DESIGN.md §8): deliberately unsynchronized. One
// thread interns (UnifiedGraph::aggregate); after that the table is
// read-only and may be shared freely. A mutex here would serialize the
// intern hot path for no correctness gain, so fr_analyze's
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
  /// Sizing pass: counts one scanned record toward its sequence's run.
  /// Call for every scanned record about to be interned, then
  /// size_runs(), before the first intern.
  void count_scanned(const Fid& fid);

  /// Allocates the runs counted since the last call and reserves every
  /// column for `expected` vertices. Throws std::logic_error once a FID
  /// has been interned (moving a FID between index parts would lose it).
  void size_runs(std::size_t expected);

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
  /// One sequence's direct-address run: the GID of (seq, oid, 0) for
  /// oid < length sits at slots_[base + oid].
  struct Run {
    std::uint64_t seq = 0;
    std::uint64_t base = 0;
    std::uint64_t length = 0;
  };
  /// Sizing-pass count of one sequence's scanned ver-0 records.
  struct Tally {
    std::uint64_t seq = 0;
    std::uint64_t records = 0;
    std::uint32_t max_oid = 0;
  };
  static constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

  /// Index into slots_ of `fid`'s run slot, or kNoSlot for overflow.
  [[nodiscard]] std::uint64_t run_slot(const Fid& fid) const noexcept;
  /// The index entry holding `fid`'s GID (kInvalidGid while unseen).
  Gid& entry_of(const Fid& fid);
  Gid push_new(const Fid& fid, ObjectKind kind, bool scanned);

  std::vector<Tally> tallies_;  // first-seen order
  std::unordered_map<std::uint64_t, std::size_t> tally_of_seq_;
  std::vector<Run> runs_;    // sorted by seq
  std::vector<Gid> slots_;   // every run back to back
  std::unordered_map<Fid, Gid, FidHash> overflow_;
  std::vector<Fid> fids_;
  std::vector<ObjectKind> kinds_;
  std::vector<std::uint8_t> scanned_;  // scan count, saturating at 255
};

}  // namespace faultyrank
