// The FaultyRank iterative algorithm (paper Alg. 1, §III).
//
// Two credibility scores per metadata object:
//   id_rank   — how believable the object's unique ID is (reinforced by
//               other objects' properties pointing at it), and
//   prop_rank — how believable its properties are (reinforced by
//               pointing at credible IDs).
//
// Each iteration runs two half-steps:
//   1. ID pass (original graph G): every vertex u distributes
//      prop_rank[u]/outdeg(u) along its out-edges; targets accumulate
//      into id_rank.
//   2. Property pass (reversed graph G_R): every vertex v distributes
//      id_rank[v] along its reversed out-edges, with unpaired edges
//      down-weighted (default 1/10 — Fig. 4) so that wishfully pointing
//      at a credible ID without an acknowledgment earns little credit.
//
// Sink vertices (no outgoing edges in the respective pass's graph)
// donate their mass uniformly to all vertices, so total mass is
// conserved; with the Alg. 1 initialization of 1.0 per vertex the mean
// rank stays exactly 1, which makes the detection threshold θ (paper:
// 0.1) a scale-free "10 % of an average object's credibility".
//
// The loop stops on Alg. 1's one test: the change of the id ranks
// falls below ε (FaultyRankConfig::epsilon gives the scale). Per-property
// credibility is the paper's future work (§VIII) and is not computed.
//
// The implementation is the pull-style transposition of Alg. 1's push
// loops: pass 1 gathers over in-neighbours via the reversed CSR, pass 2
// gathers over out-neighbours via the forward CSR. Pull form is
// mathematically identical, race-free under vertex-partitioned
// parallelism, and deterministic.
//
// Two kernels share that pull formulation (DESIGN.md §9, §14):
//   run_faultyrank           — the production kernel: precomputed
//                              PropagationPlan coefficients (branch- and
//                              division-free gathers), sink-share and
//                              diff reductions fused into the gather
//                              sweeps (two full sweeps per iteration,
//                              not five), edge-balanced chunk
//                              scheduling.
//   run_faultyrank_reference — the naive unfused kernel, kept as the
//                              golden oracle and benchmark baseline; it
//                              pays the per-edge division, branch, and
//                              paired() load every iteration.
// Every reduction in both kernels is grouped into fixed
// kRankReductionBlock-vertex blocks combined in block order, and every
// per-vertex gather accumulates through the same 4-lane tree, so the
// kernels produce bit-identical float64 results at ANY pool size —
// stronger than the seed's fixed-thread-count guarantee.
#pragma once

#include <cstddef>
#include <vector>

#include "common/thread_pool.h"
#include "graph/unified_graph.h"

namespace faultyrank {

class PropagationPlan;

/// Vertex count below which both kernels ignore the pool and run on the
/// calling thread — forking chunks costs more than the work.
inline constexpr std::size_t kRankSerialGrain = 2048;

/// Fixed reduction-block width (vertices). Every sum reduction in both
/// kernels is computed as per-block partial sums combined in ascending
/// block order; the grouping depends only on the vertex count, never on
/// the pool, which is what makes results bit-identical across pool
/// sizes. Gather chunk boundaries are aligned to this so a fused
/// reduction block never splits across chunks.
inline constexpr std::size_t kRankReductionBlock = 1024;

struct FaultyRankConfig {
  /// Convergence threshold ε on the per-iteration change of id_rank,
  /// measured as Σ|Δ| / (N·initial_rank): the L1 change relative to
  /// total mass (paper: 0.1). This is the scale the paper's numbers
  /// live on (its Table II ranks sum to 1), and the only reading under
  /// which its "ε = 0.1 … typically fewer than 20 iterations" holds for
  /// million-vertex graphs.
  double epsilon = 0.1;
  /// Hard iteration cap (the paper observes < 20 iterations at ε=0.1).
  std::size_t max_iterations = 100;
  /// Weight of unpaired edges in the reversed-graph pass (paper: 1/10).
  double unpaired_weight = 0.1;
  /// Initial id_rank and prop_rank per vertex (Alg. 1: 1.0).
  double initial_rank = 1.0;
  /// Warm start: borrowed initial rank vectors (size must equal the
  /// graph's vertex count; both set or both null). An online checker
  /// re-checking a slightly-changed graph converges in fewer iterations
  /// from the previous fixpoint than from the uniform initialization.
  const std::vector<double>* initial_id_ranks = nullptr;
  const std::vector<double>* initial_prop_ranks = nullptr;
};

struct FaultyRankResult {
  std::vector<double> id_rank;
  std::vector<double> prop_rank;
  std::size_t iterations = 0;
  /// The last iteration's id_rank change, on epsilon's scale.
  double final_diff = 0.0;
  bool converged = false;

  /// Mean rank (total mass / N, computed from the converged vector —
  /// mass is conserved, so this equals the initialization's mean).
  /// Detection thresholds are applied to rank/mean_rank so results are
  /// invariant to the initialization.
  double mean_rank = 1.0;

  [[nodiscard]] double normalized_id_rank(Gid v) const {
    return id_rank[v] / mean_rank;
  }
  [[nodiscard]] double normalized_prop_rank(Gid v) const {
    return prop_rank[v] / mean_rank;
  }
};

/// Runs FaultyRank on the unified graph with an internally-built
/// PropagationPlan. If `pool` is non-null, edge-balanced vertex ranges
/// are processed on it; otherwise the kernel runs on the calling
/// thread. Callers that iterate repeatedly over an unchanged graph
/// (online re-checks, benchmarks) should build the plan once and use
/// the overload below.
[[nodiscard]] FaultyRankResult run_faultyrank(const UnifiedGraph& graph,
                                              const FaultyRankConfig& config = {},
                                              ThreadPool* pool = nullptr);

/// Same kernel, reusing a prebuilt plan. Throws std::invalid_argument
/// if the plan was not built from exactly this graph with
/// config.unpaired_weight.
[[nodiscard]] FaultyRankResult run_faultyrank(const UnifiedGraph& graph,
                                              const PropagationPlan& plan,
                                              const FaultyRankConfig& config = {},
                                              ThreadPool* pool = nullptr);

/// The naive pre-plan kernel: five vertex-count-partitioned sweeps per
/// iteration, per-edge division/branch/paired() load. Kept as the
/// golden oracle (bit-identical to the plan kernel at any pool size —
/// the cross-kernel test enforces it) and as the benchmark baseline
/// that BENCH_kernels.json tracks the plan's speedup against.
[[nodiscard]] FaultyRankResult run_faultyrank_reference(
    const UnifiedGraph& graph, const FaultyRankConfig& config = {},
    ThreadPool* pool = nullptr);

}  // namespace faultyrank
