// The unified metadata graph (paper §III-A, §IV-B).
//
// Combines all partial graphs into one FID-keyed vertex set with dense
// GIDs, forward + reversed CSR adjacency, and the paired-edge analysis
// the FaultyRank algorithm and the detector both consume:
//   * paired(slot)      — does the opposite-direction edge exist?
//   * in-degree split   — paired vs unpaired in-edge counts per vertex
//                         (only the paired count is stored), from which
//                         the algorithm derives the weighted
//                         reverse-graph out-degree W(v) for any
//                         unpaired-edge weight (Fig. 4).
//   * unpaired_edges()  — the S_chk seed: every edge lacking its
//                         point-back counterpart.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "graph/csr.h"
#include "graph/partial_graph.h"
#include "graph/types.h"
#include "graph/vertex_table.h"

namespace faultyrank {

class ThreadPool;

/// One edge that lacks its opposite-direction counterpart.
struct UnpairedEdge {
  Gid src = 0;
  Gid dst = 0;
  EdgeKind kind = EdgeKind::kGeneric;

  friend bool operator==(const UnpairedEdge&, const UnpairedEdge&) = default;
};

/// One partial graph as the merge reads it: a decoded PartialGraph, or
/// a validated view of its FRPG bytes, read in place without a decoded
/// copy.
using PartialSource = std::variant<const PartialGraph*, PartialGraphView>;

class UnifiedGraph {
 public:
  /// Merges partial graphs in the given order (deterministic GIDs),
  /// reading each where it lives: nothing is copied before the merge.
  /// FIDs referenced by edges but scanned on no server become phantom
  /// vertices. Each edge goes from its partial straight to a
  /// CsrBuilder, so no edge list is held. Interning is serial
  /// (DESIGN.md §7); the pool, if given, parallelizes the paired-edge
  /// classification, and the result is byte-identical for any thread
  /// count.
  [[nodiscard]] static UnifiedGraph aggregate(
      std::span<const PartialSource> partials, ThreadPool* pool = nullptr);

  /// The same merge over decoded partials held contiguously.
  [[nodiscard]] static UnifiedGraph aggregate(
      std::span<const PartialGraph> partials, ThreadPool* pool = nullptr);

  /// Builds directly from a dense edge list (benchmark graphs). All
  /// vertices are considered scanned, kind kOther. The pool, if given,
  /// parallelizes the paired-edge classification.
  [[nodiscard]] static UnifiedGraph from_edges(std::size_t vertex_count,
                                               std::span<const GidEdge> edges,
                                               ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t vertex_count() const {
    return vertices_.size();
  }
  [[nodiscard]] std::uint64_t edge_count() const {
    return forward_.edge_count();
  }

  [[nodiscard]] const VertexTable& vertices() const { return vertices_; }
  [[nodiscard]] const Csr& forward() const { return forward_; }
  [[nodiscard]] const Csr& reverse() const { return reverse_; }

  /// Pairing flag for a forward edge slot.
  [[nodiscard]] bool paired(std::uint64_t forward_slot) const {
    return forward_paired_[forward_slot] != 0;
  }

  [[nodiscard]] std::uint32_t paired_in_degree(Gid v) const {
    return in_paired_[v];
  }
  /// In-edges that lack a point-back edge: the in-degree less the
  /// paired ones, so only the paired split is stored.
  [[nodiscard]] std::uint32_t unpaired_in_degree(Gid v) const {
    return static_cast<std::uint32_t>(reverse_.out_degree(v)) - in_paired_[v];
  }

  [[nodiscard]] const std::vector<UnpairedEdge>& unpaired_edges() const {
    return unpaired_;
  }

  [[nodiscard]] std::uint64_t bytes() const;

 private:
  /// Builds the reverse CSR from forward_ and classifies every edge as
  /// paired or unpaired.
  void pair_edges(ThreadPool* pool);

  VertexTable vertices_;
  Csr forward_;
  Csr reverse_;
  std::vector<std::uint8_t> forward_paired_;
  std::vector<std::uint32_t> in_paired_;
  std::vector<UnpairedEdge> unpaired_;
};

}  // namespace faultyrank
