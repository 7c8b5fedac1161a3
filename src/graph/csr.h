// Compressed Sparse Row adjacency — the in-DRAM representation the
// FaultyRank prototype uses for "extreme performance" (paper §IV-B).
//
// Built once, by a CsrBuilder fed one edge at a time; adjacency lists
// are sorted by (target, kind) so membership tests are binary searches
// and iteration order is deterministic. Multi-edges are kept: a
// corrupted directory can legitimately contain duplicate entries, and
// the Double Reference scenarios depend on seeing both copies.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/types.h"

namespace faultyrank {

/// One edge as fed to the CSR builder.
struct GidEdge {
  Gid src = 0;
  Gid dst = 0;
  EdgeKind kind = EdgeKind::kGeneric;

  friend bool operator==(const GidEdge&, const GidEdge&) = default;
};

class Csr {
 public:
  Csr() = default;

  /// Builds adjacency over `vertex_count` vertices by feeding `edges`
  /// to a CsrBuilder. Edges may arrive in any order; endpoints must be
  /// < vertex_count (std::out_of_range otherwise).
  static Csr build(std::size_t vertex_count, std::span<const GidEdge> edges);

  /// The edge-reversed graph (dst→src) over the same vertex set, by a
  /// counting-sort transpose whose write cursors are its own offsets:
  /// equal to build() of the swapped edges, slot for slot, without
  /// re-sorting.
  [[nodiscard]] Csr reversed() const;

  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::uint64_t edge_count() const noexcept {
    return targets_.size();
  }

  [[nodiscard]] std::uint64_t out_degree(Gid v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Half-open range of edge slots [begin, end) for vertex v; index the
  /// target()/kind() arrays with these.
  [[nodiscard]] std::uint64_t edges_begin(Gid v) const noexcept {
    return offsets_[v];
  }
  [[nodiscard]] std::uint64_t edges_end(Gid v) const noexcept {
    return offsets_[v + 1];
  }

  /// The raw offset (degree prefix-sum) array: offsets()[v] ==
  /// edges_begin(v), offsets()[vertex_count()] == edge_count(). Exposed
  /// so edge-balanced schedulers can binary-search chunk boundaries
  /// (ThreadPool's partition_by_weight takes exactly this shape).
  [[nodiscard]] std::span<const std::uint64_t> offsets() const noexcept {
    return offsets_;
  }

  [[nodiscard]] Gid target(std::uint64_t slot) const noexcept {
    return targets_[slot];
  }
  /// The raw slot→target array. The planned rank kernel gathers over a
  /// vertex's slots through a plain pointer, so it needs the contiguous
  /// storage, not the per-slot accessor.
  [[nodiscard]] std::span<const Gid> targets() const noexcept {
    return targets_;
  }
  [[nodiscard]] EdgeKind kind(std::uint64_t slot) const noexcept {
    return kinds_[slot];
  }

  /// True if at least one u→v edge exists (any kind). O(log deg(u)).
  [[nodiscard]] bool has_edge(Gid u, Gid v) const noexcept;

  /// True if a u→v edge of exactly this kind exists.
  [[nodiscard]] bool has_edge(Gid u, Gid v, EdgeKind kind) const noexcept;

  /// Number of u→v edge instances (any kind).
  [[nodiscard]] std::uint64_t edge_multiplicity(Gid u, Gid v) const noexcept;

  /// Exact heap footprint of the structure (Table IV/V memory column).
  /// A built Csr holds exactly (n + 1) · 8 + E · 5 bytes.
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return offsets_.capacity() * sizeof(std::uint64_t) +
           targets_.capacity() * sizeof(Gid) +
           kinds_.capacity() * sizeof(EdgeKind);
  }

 private:
  friend class CsrBuilder;

  // offsets_[v] .. offsets_[v+1] index targets_/kinds_.
  std::vector<std::uint64_t> offsets_;
  std::vector<Gid> targets_;
  std::vector<EdgeKind> kinds_;
};

/// The one way to build a Csr: declare the edge count, add() every
/// edge, then finish(). The slot arrays are sized once, exactly. An
/// edge whose source is not behind the last in-order edge's goes
/// straight into the next slot; an aggregate fed in scan order sends
/// every edge that way except a duplicate FID's. The remaining ("late")
/// edges wait in a side list, and finish() places them by counting
/// sort: each vertex's in-order run moves right to its final slot, and
/// the offsets serve as the late edges' write cursors. So no full edge
/// list and no cursor array is ever held.
///
/// Until finish(), offsets_[v + 1] counts v's in-order edges in its low
/// 32 bits and its late edges in its high 32 bits, which is why one
/// build takes fewer than 2^32 edges.
class CsrBuilder {
 public:
  /// Room for exactly `edge_count` edges; offsets are reserved for
  /// `vertex_hint` vertices (finish() makes them exact either way), and
  /// the side list for `late_hint` late edges.
  CsrBuilder(std::size_t vertex_hint, std::uint64_t edge_count,
             std::uint64_t late_hint = 0);

  /// Adds one edge. Endpoints are checked in finish() only as far as
  /// the sources go; callers that cannot vouch for their targets check
  /// them (Csr::build does).
  void add(Gid src, Gid dst, EdgeKind kind) {
    if (placed_ + late_.size() == csr_.targets_.size()) {
      throw std::length_error("csr builder: more edges than declared");
    }
    if (src >= last_src_) {
      if (src + std::size_t{2} > csr_.offsets_.size()) {
        csr_.offsets_.resize(src + std::size_t{2}, 0);
      }
      last_src_ = src;
      csr_.targets_[placed_] = dst;
      csr_.kinds_[placed_] = kind;
      ++placed_;
      ++csr_.offsets_[src + 1];
    } else {
      late_.push_back({src, dst, kind});
      csr_.offsets_[src + 1] += kLateEdge;
    }
  }

  /// Places the late edges, sorts every adjacency by (target, kind) and
  /// hands the Csr over. Throws std::out_of_range if a source is not
  /// < vertex_count, std::logic_error if fewer edges were added than
  /// declared.
  [[nodiscard]] Csr finish(std::size_t vertex_count) &&;

 private:
  static constexpr std::uint64_t kLateEdge = std::uint64_t{1} << 32;

  Csr csr_;
  std::uint64_t placed_ = 0;  ///< in-order edges, in slots [0, placed_)
  Gid last_src_ = 0;
  std::vector<GidEdge> late_;
};

}  // namespace faultyrank
