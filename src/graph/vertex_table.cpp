#include "graph/vertex_table.h"

#include <algorithm>
#include <stdexcept>

namespace faultyrank {

void VertexTable::count_scanned(const Fid& fid) {
  if (fid.ver != 0) return;  // versioned FIDs always live in overflow
  const auto [it, inserted] = tally_of_seq_.try_emplace(fid.seq, tallies_.size());
  if (inserted) tallies_.push_back({fid.seq, 0, 0});
  Tally& tally = tallies_[it->second];
  ++tally.records;
  tally.max_oid = std::max(tally.max_oid, fid.oid);
}

void VertexTable::size_runs(std::size_t expected) {
  if (!fids_.empty()) {
    throw std::logic_error("vertex table: runs sized after interning");
  }
  runs_.clear();
  runs_.reserve(tallies_.size());
  for (const Tally& tally : tallies_) {
    runs_.push_back({tally.seq, 0,
                     std::min(std::uint64_t{tally.max_oid} + 1,
                              2 * tally.records)});
  }
  std::sort(runs_.begin(), runs_.end(),
            [](const Run& a, const Run& b) { return a.seq < b.seq; });
  std::uint64_t total = 0;
  for (Run& run : runs_) {
    run.base = total;
    total += run.length;
  }
  slots_.assign(total, kInvalidGid);
  tallies_ = {};
  tally_of_seq_ = {};

  fids_.reserve(expected);
  kinds_.reserve(expected);
  scanned_.reserve(expected);
}

std::uint64_t VertexTable::run_slot(const Fid& fid) const noexcept {
  if (fid.ver != 0) return kNoSlot;
  const auto run = std::lower_bound(
      runs_.begin(), runs_.end(), fid.seq,
      [](const Run& r, std::uint64_t seq) { return r.seq < seq; });
  if (run == runs_.end() || run->seq != fid.seq || fid.oid >= run->length) {
    return kNoSlot;
  }
  return run->base + fid.oid;
}

Gid& VertexTable::entry_of(const Fid& fid) {
  const std::uint64_t slot = run_slot(fid);
  if (slot != kNoSlot) return slots_[slot];
  return overflow_.try_emplace(fid, kInvalidGid).first->second;
}

Gid VertexTable::push_new(const Fid& fid, ObjectKind kind, bool scanned) {
  if (fids_.size() >= kInvalidGid) {
    throw std::length_error("vertex table: GID space exhausted");
  }
  const Gid gid = static_cast<Gid>(fids_.size());
  fids_.push_back(fid);
  kinds_.push_back(kind);
  scanned_.push_back(scanned ? 1 : 0);
  return gid;
}

Gid VertexTable::intern_scanned(const Fid& fid, ObjectKind kind) {
  Gid& gid = entry_of(fid);
  if (gid == kInvalidGid) {
    gid = push_new(fid, kind, /*scanned=*/true);
    return gid;
  }
  kinds_[gid] = kind;
  if (scanned_[gid] < 255) ++scanned_[gid];
  return gid;
}

Gid VertexTable::intern_referenced(const Fid& fid) {
  Gid& gid = entry_of(fid);
  if (gid == kInvalidGid) {
    gid = push_new(fid, ObjectKind::kPhantom, /*scanned=*/false);
  }
  return gid;
}

Gid VertexTable::lookup(const Fid& fid) const {
  const std::uint64_t slot = run_slot(fid);
  if (slot != kNoSlot) return slots_[slot];
  const auto it = overflow_.find(fid);
  return it == overflow_.end() ? kInvalidGid : it->second;
}

std::uint64_t VertexTable::bytes() const noexcept {
  // Hash-map overhead estimated at one bucket pointer + node per entry.
  const std::uint64_t overflow_bytes =
      overflow_.size() * (sizeof(Fid) + sizeof(Gid) + 2 * sizeof(void*));
  return overflow_bytes + runs_.capacity() * sizeof(Run) +
         slots_.capacity() * sizeof(Gid) + fids_.capacity() * sizeof(Fid) +
         kinds_.capacity() * sizeof(ObjectKind) + scanned_.capacity();
}

}  // namespace faultyrank
