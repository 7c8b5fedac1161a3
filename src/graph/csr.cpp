#include "graph/csr.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace faultyrank {

namespace {

/// Sorts the adjacency in slots [begin, end) by (target, kind). Short
/// lists, most of them, are insertion-sorted in place; a longer one is
/// sorted as packed (target, kind) keys in `scratch`. Equal pairs are
/// interchangeable, so any sort yields the same slots.
void sort_adjacency(Gid* targets, EdgeKind* kinds, std::uint64_t begin,
                    std::uint64_t end, std::vector<std::uint64_t>& scratch) {
  constexpr std::uint64_t kShortList = 16;
  if (end - begin <= kShortList) {
    for (std::uint64_t i = begin + 1; i < end; ++i) {
      const Gid target = targets[i];
      const EdgeKind kind = kinds[i];
      std::uint64_t j = i;
      for (; j > begin && (targets[j - 1] > target ||
                           (targets[j - 1] == target && kinds[j - 1] > kind));
           --j) {
        targets[j] = targets[j - 1];
        kinds[j] = kinds[j - 1];
      }
      targets[j] = target;
      kinds[j] = kind;
    }
    return;
  }
  scratch.clear();
  for (std::uint64_t slot = begin; slot < end; ++slot) {
    scratch.push_back(std::uint64_t{targets[slot]} << 8 |
                      static_cast<std::uint8_t>(kinds[slot]));
  }
  std::sort(scratch.begin(), scratch.end());
  for (std::uint64_t i = 0; i < scratch.size(); ++i) {
    targets[begin + i] = static_cast<Gid>(scratch[i] >> 8);
    kinds[begin + i] = static_cast<EdgeKind>(scratch[i] & 0xff);
  }
}

}  // namespace

Csr Csr::build(std::size_t vertex_count, std::span<const GidEdge> edges) {
  // Edges in any order may all arrive behind: room for all of them.
  CsrBuilder builder(vertex_count, edges.size(), edges.size());
  for (const auto& e : edges) {
    if (e.src >= vertex_count || e.dst >= vertex_count) {
      throw std::out_of_range("csr: edge endpoint out of range");
    }
    builder.add(e.src, e.dst, e.kind);
  }
  return std::move(builder).finish(vertex_count);
}

CsrBuilder::CsrBuilder(std::size_t vertex_hint, std::uint64_t edge_count,
                       std::uint64_t late_hint) {
  if (edge_count >= kLateEdge) {
    throw std::length_error("csr builder: 2^32 or more edges");
  }
  csr_.offsets_.reserve(vertex_hint + 1);
  csr_.offsets_.push_back(0);
  csr_.targets_.resize(edge_count);
  csr_.kinds_.resize(edge_count);
  late_.reserve(late_hint);
}

Csr CsrBuilder::finish(std::size_t vertex_count) && {
  std::vector<std::uint64_t>& offsets = csr_.offsets_;
  if (placed_ + late_.size() != csr_.targets_.size()) {
    throw std::logic_error("csr builder: fewer edges than declared");
  }
  if (offsets.size() > vertex_count + 1) {
    throw std::out_of_range("csr: edge endpoint out of range");
  }
  offsets.reserve(vertex_count + 1);
  offsets.resize(vertex_count + 1, 0);
  offsets.shrink_to_fit();  // only when the vertex hint overshot

  // From the last vertex down: v's final slots end where v + 1's begin.
  // Its in-order run moves right by the late edges of the vertices
  // before it (memmove-safe: every run moves right, the highest first),
  // and offsets[v + 1] becomes the cursor where v's late edges go.
  Gid* targets = csr_.targets_.data();
  EdgeKind* kinds = csr_.kinds_.data();
  std::uint64_t next_start = csr_.targets_.size();
  std::uint64_t run_end = placed_;
  for (std::size_t v = vertex_count; v-- > 0;) {
    const std::uint64_t in_order = offsets[v + 1] % kLateEdge;
    const std::uint64_t late = offsets[v + 1] / kLateEdge;
    const std::uint64_t start = next_start - in_order - late;
    const std::uint64_t run_start = run_end - in_order;
    if (start != run_start) {
      std::copy_backward(targets + run_start, targets + run_end,
                         targets + start + in_order);
      std::copy_backward(kinds + run_start, kinds + run_end,
                         kinds + start + in_order);
    }
    offsets[v + 1] = start + in_order;
    run_end = run_start;
    next_start = start;
  }
  // Each cursor ends on the next vertex's first slot, which is the
  // offset it must hold.
  for (const GidEdge& e : late_) {
    const std::uint64_t slot = offsets[e.src + 1]++;
    targets[slot] = e.dst;
    kinds[slot] = e.kind;
  }
  late_ = std::vector<GidEdge>();

  // Sort each adjacency by (target, kind) for binary-searchable,
  // deterministic neighbour order. One scratch buffer reused across
  // vertices keeps the pass allocation-free.
  std::vector<std::uint64_t> scratch;
  for (std::size_t v = 0; v < vertex_count; ++v) {
    sort_adjacency(targets, kinds, offsets[v], offsets[v + 1], scratch);
  }
  return std::move(csr_);
}

Csr Csr::reversed() const {
  // Counting-sort transpose. Sources are walked in ascending order and
  // each forward list is sorted by (target, kind), so every reverse
  // list comes out in (source, kind) order with no per-vertex sort.
  // rev.offsets_[t] is t's write cursor; once every edge is placed it
  // holds t + 1's first slot, so the offsets shift back one place.
  Csr rev;
  rev.offsets_.assign(vertex_count() + 1, 0);
  for (const Gid t : targets_) ++rev.offsets_[t + 1];
  std::partial_sum(rev.offsets_.begin(), rev.offsets_.end(),
                   rev.offsets_.begin());

  rev.targets_.resize(targets_.size());
  rev.kinds_.resize(kinds_.size());
  for (std::size_t v = 0; v + 1 < offsets_.size(); ++v) {
    for (auto slot = offsets_[v]; slot < offsets_[v + 1]; ++slot) {
      const std::uint64_t rslot = rev.offsets_[targets_[slot]]++;
      rev.targets_[rslot] = static_cast<Gid>(v);
      rev.kinds_[rslot] = kinds_[slot];
    }
  }
  std::copy_backward(rev.offsets_.begin(), rev.offsets_.end() - 1,
                     rev.offsets_.end());
  rev.offsets_[0] = 0;
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
