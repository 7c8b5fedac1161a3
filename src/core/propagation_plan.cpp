#include "core/propagation_plan.h"

#include <stdexcept>

#include "core/faultyrank.h"

namespace faultyrank {

namespace {

/// Runs body(begin, end) over [0, n) on the pool if it helps. Outputs
/// of every caller are index-addressed, so chunking cannot change the
/// result.
template <typename Body>
void for_range(ThreadPool* pool, std::uint64_t n, const Body& body) {
  if (pool == nullptr || pool->size() <= 1 || n < 2048) {
    if (n > 0) body(std::uint64_t{0}, n);
    return;
  }
  pool->parallel_for(static_cast<std::size_t>(n),
                     [&body](std::size_t begin, std::size_t end, std::size_t) {
                       body(begin, end);
                     });
}

/// Fills a slot-aligned coefficient array: out[slot] = value(slot). A
/// split over slots is already edge-balanced.
template <typename PerSlot>
std::vector<double> fill_coefficients(ThreadPool* pool, std::uint64_t slots,
                                      const PerSlot& value) {
  std::vector<double> out(slots);
  for_range(pool, slots, [&](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t slot = begin; slot < end; ++slot) {
      out[slot] = value(slot);
    }
  });
  return out;
}

}  // namespace

PropagationPlan PropagationPlan::build(const UnifiedGraph& graph,
                                       double unpaired_weight,
                                       ThreadPool* pool) {
  if (unpaired_weight < 0.0 || unpaired_weight > 1.0) {
    throw std::invalid_argument(
        "propagation plan: unpaired_weight must be within [0, 1]");
  }

  PropagationPlan plan;
  plan.graph_ = &graph;
  plan.unpaired_weight_ = unpaired_weight;

  const std::size_t n = graph.vertex_count();
  const Csr& forward = graph.forward();
  const Csr& reverse = graph.reverse();

  // Weighted out-degree of each vertex in the *reversed* graph (Fig. 4)
  // — the expression must stay textually identical to the reference
  // kernel's so coefficients reproduce its arithmetic bit-for-bit.
  std::vector<double> reversed_weighted_degree(n);
  for_range(pool, n, [&](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t v = begin; v < end; ++v) {
      const auto gv = static_cast<Gid>(v);
      reversed_weighted_degree[v] =
          static_cast<double>(graph.paired_in_degree(gv)) +
          unpaired_weight * static_cast<double>(graph.unpaired_in_degree(gv));
    }
  });

  // Pass-1 coefficients: a reverse edge v←u carries prop_rank[u] scaled
  // by 1/outdeg(u). outdeg(u) ≥ 1 by construction (u owns this edge).
  plan.coeff_rev_ =
      fill_coefficients(pool, reverse.edge_count(), [&](std::uint64_t slot) {
        return 1.0 /
               static_cast<double>(forward.out_degree(reverse.target(slot)));
      });
  // Pass-2 coefficients: a forward edge v→t is a reversed edge t→v
  // carrying id_rank[t] scaled by weight/W(t); reversed sinks (W = 0)
  // get coefficient 0 so the kernel needs no branch.
  plan.coeff_fwd_ =
      fill_coefficients(pool, forward.edge_count(), [&](std::uint64_t slot) {
        const double denom = reversed_weighted_degree[forward.target(slot)];
        if (denom == 0.0) return 0.0;
        return (graph.paired(slot) ? 1.0 : unpaired_weight) / denom;
      });

  // Sink lists, ascending (serial: one cheap pass, done once per plan).
  for (std::size_t v = 0; v < n; ++v) {
    const auto gv = static_cast<Gid>(v);
    if (forward.out_degree(gv) == 0) plan.forward_sinks_.push_back(gv);
    if (reversed_weighted_degree[v] == 0.0) plan.reversed_sinks_.push_back(gv);
  }
  return plan;
}

}  // namespace faultyrank
