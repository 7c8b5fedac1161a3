// PropagationPlan — precomputed SpMV form of the FaultyRank iteration
// (DESIGN.md §9).
//
// The naive kernel pays, per edge per iteration, a double division, a
// paired() byte load, and a branch; and per iteration, five full-vertex
// sweeps. Built once from a UnifiedGraph and an unpaired-edge weight,
// the plan hoists every edge-invariant quantity into slot-aligned
// coefficient arrays — the standard move of the PageRank-style systems
// the paper cites (PowerGraph, Ligra):
//
//   coeff_rev[slot] = 1 / outdeg(target(slot))       (reverse CSR slot)
//     pass 1 becomes   acc += prop_rank[u] * coeff_rev[slot]
//
//   coeff_fwd[slot] = (paired ? 1 : w) / W(target)   (forward CSR slot)
//     where W(v) = paired_in(v) + w·unpaired_in(v) is the reversed
//     weighted degree, and the coefficient is 0 when the target is a
//     reversed sink (W = 0), so pass 2 loses its division, branch, and
//     paired() lookup and both half-steps are branch-free
//     multiply-accumulate loops.
//
// The plan also caches the sink-vertex lists of both passes (sorted by
// vertex id), so the sink-share reductions touch only the sinks instead
// of predicate-sweeping every vertex, and the rank kernel can fuse them
// into its gather chunks.
//
// The coefficients sit in the graph's own (GID) slot order, in float64,
// so the kernel sweeps the graph's CSRs directly. DESIGN.md §14 records
// the layouts measured against this one and why none was kept.
//
// The plan borrows the graph: the UnifiedGraph must outlive it and stay
// at the same address (run_faultyrank verifies identity via matches()).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "graph/unified_graph.h"

namespace faultyrank {

class PropagationPlan {
 public:
  /// Derives the coefficient arrays and sink lists; with a pool the
  /// degree derivation and both coefficient passes run in parallel
  /// (slot-indexed outputs, so the result is identical for any pool).
  /// Throws std::invalid_argument unless unpaired_weight ∈ [0, 1].
  [[nodiscard]] static PropagationPlan build(const UnifiedGraph& graph,
                                             double unpaired_weight,
                                             ThreadPool* pool = nullptr);

  /// Reverse-slot-aligned pass-1 coefficients.
  [[nodiscard]] std::span<const double> coeff_rev() const noexcept {
    return coeff_rev_;
  }
  /// Forward-slot-aligned pass-2 coefficients (0 for reversed-sink
  /// targets).
  [[nodiscard]] std::span<const double> coeff_fwd() const noexcept {
    return coeff_fwd_;
  }

  /// Vertices with no out-edge in G (pass-1 sinks), ascending.
  [[nodiscard]] std::span<const Gid> forward_sinks() const noexcept {
    return forward_sinks_;
  }
  /// Vertices with zero reversed weighted degree (pass-2 sinks),
  /// ascending.
  [[nodiscard]] std::span<const Gid> reversed_sinks() const noexcept {
    return reversed_sinks_;
  }

  [[nodiscard]] double unpaired_weight() const noexcept {
    return unpaired_weight_;
  }

  /// True iff the plan was built from exactly this graph object with
  /// exactly this weight — the kernel refuses stale plans.
  [[nodiscard]] bool matches(const UnifiedGraph& graph,
                             double unpaired_weight) const noexcept {
    return graph_ == &graph && unpaired_weight_ == unpaired_weight;
  }

  /// Heap footprint of the plan (reported next to UnifiedGraph::bytes
  /// in the perf tables): coefficients and sink lists.
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return (coeff_rev_.capacity() + coeff_fwd_.capacity()) * sizeof(double) +
           (forward_sinks_.capacity() + reversed_sinks_.capacity()) *
               sizeof(Gid);
  }

 private:
  PropagationPlan() = default;

  const UnifiedGraph* graph_ = nullptr;
  double unpaired_weight_ = 0.1;
  std::vector<double> coeff_rev_;
  std::vector<double> coeff_fwd_;
  std::vector<Gid> forward_sinks_;
  std::vector<Gid> reversed_sinks_;
};

}  // namespace faultyrank
