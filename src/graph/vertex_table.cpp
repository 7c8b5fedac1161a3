#include "graph/vertex_table.h"

#include <stdexcept>

namespace faultyrank {

Gid VertexTable::push_new(const Fid& fid, ObjectKind kind, bool scanned) {
  if (fids_.size() >= kInvalidGid) {
    throw std::length_error("vertex table: GID space exhausted");
  }
  const Gid gid = static_cast<Gid>(fids_.size());
  fids_.push_back(fid);
  kinds_.push_back(kind);
  scanned_.push_back(scanned ? 1 : 0);
  index_.emplace(fid, gid);
  return gid;
}

Gid VertexTable::intern_scanned(const Fid& fid, ObjectKind kind) {
  if (auto it = index_.find(fid); it != index_.end()) {
    const Gid gid = it->second;
    kinds_[gid] = kind;
    if (scanned_[gid] < 255) ++scanned_[gid];
    return gid;
  }
  return push_new(fid, kind, /*scanned=*/true);
}

Gid VertexTable::intern_referenced(const Fid& fid) {
  if (auto it = index_.find(fid); it != index_.end()) return it->second;
  return push_new(fid, ObjectKind::kPhantom, /*scanned=*/false);
}

Gid VertexTable::lookup(const Fid& fid) const {
  const auto it = index_.find(fid);
  return it == index_.end() ? kInvalidGid : it->second;
}

std::uint64_t VertexTable::bytes() const noexcept {
  // Hash-map overhead estimated at one bucket pointer + node per entry.
  const std::uint64_t map_bytes =
      index_.size() * (sizeof(Fid) + sizeof(Gid) + 2 * sizeof(void*));
  return map_bytes + fids_.capacity() * sizeof(Fid) +
         kinds_.capacity() * sizeof(ObjectKind) + scanned_.capacity();
}

}  // namespace faultyrank
