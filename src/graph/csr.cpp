#include "graph/csr.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace faultyrank {

Csr Csr::build(std::size_t vertex_count, std::span<const GidEdge> edges) {
  Csr csr;
  csr.offsets_.assign(vertex_count + 1, 0);

  for (const auto& e : edges) {
    if (e.src >= vertex_count || e.dst >= vertex_count) {
      throw std::out_of_range("csr: edge endpoint out of range");
    }
    ++csr.offsets_[e.src + 1];
  }
  std::partial_sum(csr.offsets_.begin(), csr.offsets_.end(),
                   csr.offsets_.begin());

  csr.targets_.resize(edges.size());
  csr.kinds_.resize(edges.size());
  std::vector<std::uint64_t> cursor(csr.offsets_.begin(),
                                    csr.offsets_.end() - 1);
  for (const auto& e : edges) {
    const std::uint64_t slot = cursor[e.src]++;
    csr.targets_[slot] = e.dst;
    csr.kinds_[slot] = e.kind;
  }

  // Sort each adjacency by (target, kind) for binary-searchable,
  // deterministic neighbour order. One scratch buffer reused across
  // vertices keeps the pass allocation-free.
  std::vector<std::pair<Gid, EdgeKind>> scratch;
  for (std::size_t v = 0; v < vertex_count; ++v) {
    const auto begin = csr.offsets_[v];
    const auto end = csr.offsets_[v + 1];
    if (end - begin < 2) continue;
    scratch.clear();
    for (auto slot = begin; slot < end; ++slot) {
      scratch.emplace_back(csr.targets_[slot], csr.kinds_[slot]);
    }
    std::sort(scratch.begin(), scratch.end());
    for (std::uint64_t i = 0; i < scratch.size(); ++i) {
      csr.targets_[begin + i] = scratch[i].first;
      csr.kinds_[begin + i] = scratch[i].second;
    }
  }
  return csr;
}

Csr Csr::reversed() const {
  // Counting-sort transpose. Sources are walked in ascending order and
  // each forward list is sorted by (target, kind), so every reverse
  // list comes out in (source, kind) order with no per-vertex sort.
  Csr rev;
  rev.offsets_.assign(vertex_count() + 1, 0);
  for (const Gid t : targets_) ++rev.offsets_[t + 1];
  std::partial_sum(rev.offsets_.begin(), rev.offsets_.end(),
                   rev.offsets_.begin());

  rev.targets_.resize(targets_.size());
  rev.kinds_.resize(kinds_.size());
  std::vector<std::uint64_t> cursor(rev.offsets_.begin(),
                                    rev.offsets_.end() - 1);
  for (std::size_t v = 0; v + 1 < offsets_.size(); ++v) {
    for (auto slot = offsets_[v]; slot < offsets_[v + 1]; ++slot) {
      const std::uint64_t rslot = cursor[targets_[slot]]++;
      rev.targets_[rslot] = static_cast<Gid>(v);
      rev.kinds_[rslot] = kinds_[slot];
    }
  }
  return rev;
}

bool Csr::has_edge(Gid u, Gid v) const noexcept {
  const auto begin = targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]);
  const auto end = targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]);
  return std::binary_search(begin, end, v);
}

bool Csr::has_edge(Gid u, Gid v, EdgeKind kind) const noexcept {
  const auto begin = targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]);
  const auto end = targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]);
  auto [lo, hi] = std::equal_range(begin, end, v);
  for (auto it = lo; it != hi; ++it) {
    const auto slot = static_cast<std::uint64_t>(it - targets_.begin());
    if (kinds_[slot] == kind) return true;
  }
  return false;
}

std::uint64_t Csr::edge_multiplicity(Gid u, Gid v) const noexcept {
  const auto begin = targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]);
  const auto end = targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]);
  auto [lo, hi] = std::equal_range(begin, end, v);
  return static_cast<std::uint64_t>(hi - lo);
}

}  // namespace faultyrank
