#include "core/faultyrank.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "core/propagation_plan.h"

// The plan kernel and the reference oracle live in this translation
// unit on purpose, and the whole project compiles with
// -ffp-contract=off: identical compiler flags plus the shared 4-lane
// gather tree are what make the kernels bit-identical (DESIGN.md §9).

namespace faultyrank {

namespace {

/// Runs body(begin, end, chunk) over [0, n), on the pool if provided
/// and n reaches kRankSerialGrain; below it the body runs on the calling
/// thread.
template <typename Body>
void run_chunked(ThreadPool* pool, std::size_t n, const Body& body) {
  if (pool == nullptr || pool->size() <= 1 || n < kRankSerialGrain) {
    if (n > 0) body(0, n, 0);
    return;
  }
  pool->parallel_for(n, body);
}

constexpr std::size_t block_count(std::size_t n) {
  return (n + kRankReductionBlock - 1) / kRankReductionBlock;
}

/// Deterministic sum of term(v) over [0, n): per-block partial sums
/// (vertex order within a block) combined in ascending block order. The
/// grouping depends only on n — never on the pool — so the result is
/// bit-identical for any pool size, and identical to the fused
/// accumulation the plan kernel performs inside its aligned gather
/// chunks.
template <typename Term>
double reduce_block_sum(ThreadPool* pool, std::size_t n,
                        std::vector<double>& blocks, const Term& term) {
  const std::size_t nb = block_count(n);
  blocks.assign(nb, 0.0);
  const auto body = [&](std::size_t bb, std::size_t be, std::size_t) {
    for (std::size_t b = bb; b < be; ++b) {
      const std::size_t begin = b * kRankReductionBlock;
      const std::size_t end = std::min(n, begin + kRankReductionBlock);
      double acc = 0.0;
      for (std::size_t v = begin; v < end; ++v) acc += term(v);
      blocks[b] = acc;
    }
  };
  if (pool == nullptr || pool->size() <= 1 || nb <= 1) {
    if (nb > 0) body(0, nb, 0);
  } else {
    pool->parallel_for(nb, body);
  }
  double total = 0.0;
  for (std::size_t b = 0; b < nb; ++b) total += blocks[b];
  return total;
}

void validate_config(const FaultyRankConfig& config) {
  if (config.epsilon <= 0.0) {
    throw std::invalid_argument("faultyrank: epsilon must be positive");
  }
  if (config.unpaired_weight < 0.0 || config.unpaired_weight > 1.0) {
    throw std::invalid_argument(
        "faultyrank: unpaired_weight must be within [0, 1]");
  }
}

struct RankVectors {
  std::vector<double> id_rank;
  std::vector<double> prop_rank;
};

RankVectors initial_ranks(const FaultyRankConfig& config, std::size_t n) {
  if ((config.initial_id_ranks == nullptr) !=
      (config.initial_prop_ranks == nullptr)) {
    throw std::invalid_argument(
        "faultyrank: warm start requires both rank vectors");
  }
  if (config.initial_id_ranks != nullptr &&
      (config.initial_id_ranks->size() != n ||
       config.initial_prop_ranks->size() != n)) {
    throw std::invalid_argument(
        "faultyrank: warm-start vectors must match the vertex count");
  }
  RankVectors vectors;
  vectors.id_rank = config.initial_id_ranks != nullptr
                        ? *config.initial_id_ranks
                        : std::vector<double>(n, config.initial_rank);
  vectors.prop_rank = config.initial_prop_ranks != nullptr
                          ? *config.initial_prop_ranks
                          : std::vector<double>(n, config.initial_rank);
  return vectors;
}

/// The convergence diff: the L1 change of id_rank relative to total
/// mass, Σ|Δ| / (N·initial_rank) — shared verbatim by both kernels so the
/// scalar arithmetic matches.
double scale_diff(const FaultyRankConfig& config, double l1, double inv_n) {
  return l1 * (inv_n / config.initial_rank);
}

/// Mass is conserved, so the mean equals the initialization's mean —
/// compute it from the converged vector so warm starts normalize
/// correctly too. Serial full-order sum, identical in both kernels.
double mean_rank_of(const std::vector<double>& id_rank) {
  double total_mass = 0.0;
  for (const double rank : id_rank) total_mass += rank;
  return id_rank.empty() ? 1.0
                         : total_mass / static_cast<double>(id_rank.size());
}

// ---------------------------------------------------------------------
// Plan kernel: branch-free coefficient gathers through the 4-lane tree,
// reductions fused into the sweeps, edge-balanced chunk scheduling.
// ---------------------------------------------------------------------

/// One vertex's gather Σ rank[targets[i]]·coeff[i], accumulated into
/// four partial sums by relative slot position mod 4 and combined as
/// (l0 + l2) + (l1 + l3). The reference kernel inlines the same tree,
/// which is what keeps the two kernels bit-identical. Two provisos, both
/// enforced by the build: no FMA contraction (rank·coeff must round
/// before the add — the project compiles with -ffp-contract=off), and
/// skipped zero-coefficient terms must be exact +0.0 adds, which are
/// no-ops on the non-negative partial sums these kernels produce.
double gather(const Gid* targets, const double* coeff, std::uint64_t count,
              const double* rank) noexcept {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::uint64_t i = 0; i < count; ++i) {
    lanes[i & 3] += rank[targets[i]] * coeff[i];
  }
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

FaultyRankResult run_planned(const UnifiedGraph& graph,
                             const PropagationPlan& plan,
                             const FaultyRankConfig& config,
                             ThreadPool* pool) {
  const std::size_t n = graph.vertex_count();
  const Csr& forward = graph.forward();
  const Csr& reverse = graph.reverse();
  const Gid* fwd_targets = forward.targets().data();
  const Gid* rev_targets = reverse.targets().data();
  const double* coeff_rev = plan.coeff_rev().data();
  const double* coeff_fwd = plan.coeff_fwd().data();
  const std::span<const Gid> fwd_sinks = plan.forward_sinks();
  const std::span<const Gid> rev_sinks = plan.reversed_sinks();

  FaultyRankResult result;
  auto [id_rank, prop_rank] = initial_ranks(config, n);
  std::vector<double> next(n, 0.0);

  const double inv_n = 1.0 / static_cast<double>(n);
  const std::size_t nb = block_count(n);
  std::vector<double> block_l1(nb), block_sink(nb);

  const bool parallel =
      pool != nullptr && pool->size() > 1 && n >= kRankSerialGrain;
  // Chunk boundaries carry ~equal *edge* counts (binary search over the
  // CSR offsets), aligned so no reduction block spans two chunks. Each
  // pass gets its own partition: the two CSRs have different skew.
  std::vector<std::size_t> rev_bounds, fwd_bounds;
  if (parallel) {
    rev_bounds = partition_by_weight(reverse.offsets(), pool->size(),
                                     kRankReductionBlock);
    fwd_bounds = partition_by_weight(forward.offsets(), pool->size(),
                                     kRankReductionBlock);
  }
  const auto run_pass =
      [&](const std::vector<std::size_t>& bounds,
          const std::function<void(std::size_t, std::size_t, std::size_t)>&
              body) {
        if (!parallel) {
          body(0, n, 0);
          return;
        }
        pool->parallel_for_ranges(bounds, body);
      };

  // Blockwise sum of values[v] over an ascending sink list — the same
  // grouping as a predicate block sum over all vertices, because the
  // skipped terms are exact zeros.
  const auto sum_sinks = [&](std::span<const Gid> sinks,
                             const std::vector<double>& values) {
    double total = 0.0;
    double acc = 0.0;
    std::size_t block = 0;
    for (const Gid v : sinks) {
      const std::size_t b = v / kRankReductionBlock;
      if (b != block) {
        total += acc;
        acc = 0.0;
        block = b;
      }
      acc += values[v];
    }
    return total + acc;
  };

  // Sink-share numerators. sink1 (pass-1 sinks' prop mass) is seeded
  // here and thereafter maintained by the fused pass-2 accumulation;
  // sink2 comes out of the fused pass-1 accumulation each iteration.
  double sink1_sum = sum_sinks(fwd_sinks, prop_rank);

  double diff = 0.0;
  std::size_t iteration = 0;
  for (; iteration < config.max_iterations; ++iteration) {
    // ---- Pass 1: id_rank from prop_rank over G (pull via G_R), with
    // the diff and next-pass sink reductions fused into the sweep. ----
    const double sink_share = sink1_sum * inv_n;
    run_pass(rev_bounds, [&](std::size_t begin, std::size_t end,
                             std::size_t) {
      auto sink_pos = std::lower_bound(rev_sinks.begin(), rev_sinks.end(),
                                       static_cast<Gid>(begin));
      double l1 = 0.0;
      double sink_acc = 0.0;
      std::size_t block = begin / kRankReductionBlock;
      for (std::size_t v = begin; v < end; ++v) {
        const std::size_t b = v / kRankReductionBlock;
        if (b != block) {
          block_l1[block] = l1;
          block_sink[block] = sink_acc;
          l1 = sink_acc = 0.0;
          block = b;
        }
        const auto gv = static_cast<Gid>(v);
        const std::uint64_t s0 = reverse.edges_begin(gv);
        const double acc =
            sink_share + gather(rev_targets + s0, coeff_rev + s0,
                                reverse.edges_end(gv) - s0, prop_rank.data());
        next[v] = acc;
        l1 += std::abs(acc - id_rank[v]);
        if (sink_pos != rev_sinks.end() && *sink_pos == gv) {
          sink_acc += acc;
          ++sink_pos;
        }
      }
      block_l1[block] = l1;
      block_sink[block] = sink_acc;
    });

    double diff_l1 = 0.0;
    double sink2_sum = 0.0;
    for (std::size_t b = 0; b < nb; ++b) {
      diff_l1 += block_l1[b];
      sink2_sum += block_sink[b];
    }
    diff = scale_diff(config, diff_l1, inv_n);
    id_rank.swap(next);

    // ---- Pass 2: prop_rank from id_rank over G_R (pull via G), with
    // the next pass-1 sink reduction fused into the sweep. ----
    const double sink_share_reversed = sink2_sum * inv_n;
    run_pass(fwd_bounds, [&](std::size_t begin, std::size_t end,
                             std::size_t) {
      auto sink_pos = std::lower_bound(fwd_sinks.begin(), fwd_sinks.end(),
                                       static_cast<Gid>(begin));
      double sink_acc = 0.0;
      std::size_t block = begin / kRankReductionBlock;
      for (std::size_t v = begin; v < end; ++v) {
        const std::size_t b = v / kRankReductionBlock;
        if (b != block) {
          block_sink[block] = sink_acc;
          sink_acc = 0.0;
          block = b;
        }
        const auto gv = static_cast<Gid>(v);
        const std::uint64_t s0 = forward.edges_begin(gv);
        const double acc = sink_share_reversed +
                           gather(fwd_targets + s0, coeff_fwd + s0,
                                  forward.edges_end(gv) - s0, id_rank.data());
        next[v] = acc;
        if (sink_pos != fwd_sinks.end() && *sink_pos == gv) {
          sink_acc += acc;
          ++sink_pos;
        }
      }
      block_sink[block] = sink_acc;
    });
    sink1_sum = 0.0;
    for (std::size_t b = 0; b < nb; ++b) sink1_sum += block_sink[b];
    prop_rank.swap(next);

    if (diff < config.epsilon) {
      ++iteration;
      result.converged = true;
      break;
    }
  }

  result.mean_rank = mean_rank_of(id_rank);
  result.id_rank = std::move(id_rank);
  result.prop_rank = std::move(prop_rank);
  result.iterations = iteration;
  result.final_diff = diff;
  return result;
}

}  // namespace

FaultyRankResult run_faultyrank(const UnifiedGraph& graph,
                                const FaultyRankConfig& config,
                                ThreadPool* pool) {
  validate_config(config);
  if (graph.vertex_count() == 0) {
    FaultyRankResult result;
    result.mean_rank = config.initial_rank;
    result.converged = true;
    return result;
  }
  const PropagationPlan plan =
      PropagationPlan::build(graph, config.unpaired_weight, pool);
  return run_planned(graph, plan, config, pool);
}

FaultyRankResult run_faultyrank(const UnifiedGraph& graph,
                                const PropagationPlan& plan,
                                const FaultyRankConfig& config,
                                ThreadPool* pool) {
  validate_config(config);
  if (!plan.matches(graph, config.unpaired_weight)) {
    throw std::invalid_argument(
        "faultyrank: plan was built from a different graph or "
        "unpaired_weight");
  }
  if (graph.vertex_count() == 0) {
    FaultyRankResult result;
    result.mean_rank = config.initial_rank;
    result.converged = true;
    return result;
  }
  return run_planned(graph, plan, config, pool);
}

FaultyRankResult run_faultyrank_reference(const UnifiedGraph& graph,
                                          const FaultyRankConfig& config,
                                          ThreadPool* pool) {
  validate_config(config);

  const std::size_t n = graph.vertex_count();
  FaultyRankResult result;
  result.mean_rank = config.initial_rank;
  if (n == 0) {
    result.converged = true;
    return result;
  }

  const Csr& forward = graph.forward();
  const Csr& reverse = graph.reverse();

  // Weighted out-degree of each vertex in the *reversed* graph: each
  // in-edge of v in G is an out-edge of v in G_R, weighted by whether
  // the original edge is paired (Fig. 4). Derived in parallel — the
  // expression must stay textually identical to PropagationPlan::build.
  std::vector<double> reversed_weighted_degree(n);
  run_chunked(pool, n,
              [&](std::size_t begin, std::size_t end, std::size_t) {
                for (std::size_t v = begin; v < end; ++v) {
                  const auto gv = static_cast<Gid>(v);
                  reversed_weighted_degree[v] =
                      static_cast<double>(graph.paired_in_degree(gv)) +
                      config.unpaired_weight *
                          static_cast<double>(graph.unpaired_in_degree(gv));
                }
              });

  auto [id_rank, prop_rank] = initial_ranks(config, n);
  std::vector<double> next(n, 0.0);

  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> blocks;

  double diff = 0.0;
  std::size_t iteration = 0;
  for (; iteration < config.max_iterations; ++iteration) {
    // ---- Pass 1: id_rank from prop_rank over G (pull via G_R). ----
    // Sinks in G (out-degree 0) spread their property mass uniformly.
    const double sink_share =
        reduce_block_sum(pool, n, blocks,
                         [&](std::size_t v) {
                           return forward.out_degree(static_cast<Gid>(v)) == 0
                                      ? prop_rank[v]
                                      : 0.0;
                         }) *
        inv_n;

    // Per-vertex gathers accumulate through the same 4-lane tree as the
    // plan kernel's gather() — lane index is relative slot position
    // mod 4 — so the two kernels stay bit-identical.
    run_chunked(
        pool, n,
        [&](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t v = begin; v < end; ++v) {
            const auto gv = static_cast<Gid>(v);
            const std::uint64_t s0 = reverse.edges_begin(gv);
            const std::uint64_t s1 = reverse.edges_end(gv);
            double lanes[4] = {0.0, 0.0, 0.0, 0.0};
            for (std::uint64_t slot = s0; slot < s1; ++slot) {
              const Gid u = reverse.target(slot);
              lanes[(slot - s0) & 3] +=
                  prop_rank[u] *
                  (1.0 / static_cast<double>(forward.out_degree(u)));
            }
            next[v] =
                sink_share + ((lanes[0] + lanes[2]) + (lanes[1] + lanes[3]));
          }
        });

    const double l1 = reduce_block_sum(
        pool, n, blocks,
        [&](std::size_t v) { return std::abs(next[v] - id_rank[v]); });
    diff = scale_diff(config, l1, inv_n);
    id_rank.swap(next);

    // ---- Pass 2: prop_rank from id_rank over G_R (pull via G). ----
    // Sinks in G_R are vertices whose reversed weighted degree is zero
    // (no in-edges in G, or all in-edges unpaired under weight 0).
    const double sink_share_reversed =
        reduce_block_sum(pool, n, blocks,
                         [&](std::size_t v) {
                           return reversed_weighted_degree[v] == 0.0
                                      ? id_rank[v]
                                      : 0.0;
                         }) *
        inv_n;

    run_chunked(
        pool, n,
        [&](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t v = begin; v < end; ++v) {
            const auto gv = static_cast<Gid>(v);
            const std::uint64_t s0 = forward.edges_begin(gv);
            const std::uint64_t s1 = forward.edges_end(gv);
            double lanes[4] = {0.0, 0.0, 0.0, 0.0};
            // Each forward edge v→t is a reversed edge t→v carrying
            // id_rank[t] scaled by the pairing weight of v→t. A skipped
            // sink slot still consumes its lane position: in the plan
            // kernel that slot carries coefficient 0 and contributes an
            // exact +0.0 to the same lane.
            for (std::uint64_t slot = s0; slot < s1; ++slot) {
              const Gid t = forward.target(slot);
              const double denom = reversed_weighted_degree[t];
              if (denom == 0.0) continue;  // t handled as reversed sink
              const double w =
                  graph.paired(slot) ? 1.0 : config.unpaired_weight;
              lanes[(slot - s0) & 3] += id_rank[t] * (w / denom);
            }
            next[v] = sink_share_reversed +
                      ((lanes[0] + lanes[2]) + (lanes[1] + lanes[3]));
          }
        });
    prop_rank.swap(next);

    if (diff < config.epsilon) {
      ++iteration;
      result.converged = true;
      break;
    }
  }

  result.mean_rank = mean_rank_of(id_rank);
  result.id_rank = std::move(id_rank);
  result.prop_rank = std::move(prop_rank);
  result.iterations = iteration;
  result.final_diff = diff;
  return result;
}

}  // namespace faultyrank
