// PropagationPlan construction + the cross-kernel golden suite: the
// plan kernel must reproduce the reference kernel bit-for-bit, on any
// pool (DESIGN.md §9's determinism claim, enforced).
#include "core/propagation_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/faultyrank.h"
#include "workload/rmat.h"
#include "workload/synthetic_graphs.h"

namespace faultyrank {
namespace {

// Star with pairing structure: hub 0 points at every spoke; the first
// half point back (paired), the second half do not (unpaired); the last
// kIsolated vertices have no edges at all, so they are both pass-1 and
// pass-2 sinks. Big enough to clear kRankSerialGrain.
constexpr std::size_t kStarVertices = 3000;
constexpr std::size_t kIsolated = 10;

UnifiedGraph make_star_graph() {
  std::vector<GidEdge> edges;
  const std::size_t spokes = kStarVertices - kIsolated;
  for (Gid v = 1; v < spokes; ++v) {
    edges.push_back({0, v, EdgeKind::kDirent});
    if (v <= spokes / 2) edges.push_back({v, 0, EdgeKind::kLinkEa});
  }
  return UnifiedGraph::from_edges(kStarVertices, edges);
}

UnifiedGraph make_power_law_graph() {
  const GeneratedGraph gen = generate_rmat({.scale = 12, .avg_degree = 8});
  return UnifiedGraph::from_edges(gen.vertex_count, gen.edges);
}

// Exact bit comparison — EXPECT_DOUBLE_EQ tolerates 4 ulps and == would
// conflate +0.0 with -0.0; the golden contract is the bit pattern.
void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << " diverges at vertex " << i << ": " << a[i] << " vs "
        << b[i];
  }
}

void expect_results_equal(const FaultyRankResult& a, const FaultyRankResult& b,
                          const std::string& what) {
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.converged, b.converged) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.final_diff),
            std::bit_cast<std::uint64_t>(b.final_diff))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean_rank),
            std::bit_cast<std::uint64_t>(b.mean_rank))
      << what;
  expect_bits_equal(a.id_rank, b.id_rank, (what + " id_rank").c_str());
  expect_bits_equal(a.prop_rank, b.prop_rank, (what + " prop_rank").c_str());
}

TEST(PropagationPlanTest, CoefficientsMatchTheirDefinition) {
  const UnifiedGraph g = make_star_graph();
  const double w = 0.1;
  const PropagationPlan plan = PropagationPlan::build(g, w);
  const Csr& forward = g.forward();
  const Csr& reverse = g.reverse();

  ASSERT_EQ(plan.coeff_rev().size(), reverse.edge_count());
  for (std::uint64_t slot = 0; slot < reverse.edge_count(); ++slot) {
    const Gid u = reverse.target(slot);
    EXPECT_EQ(plan.coeff_rev()[slot],
              1.0 / static_cast<double>(forward.out_degree(u)));
  }

  ASSERT_EQ(plan.coeff_fwd().size(), forward.edge_count());
  for (std::uint64_t slot = 0; slot < forward.edge_count(); ++slot) {
    const Gid t = forward.target(slot);
    const double denom =
        static_cast<double>(g.paired_in_degree(t)) +
        w * static_cast<double>(g.unpaired_in_degree(t));
    if (denom == 0.0) {
      EXPECT_EQ(plan.coeff_fwd()[slot], 0.0);
    } else {
      EXPECT_EQ(plan.coeff_fwd()[slot],
                (g.paired(slot) ? 1.0 : w) / denom);
    }
  }
}

TEST(PropagationPlanTest, SinkListsAreSortedAndComplete) {
  const UnifiedGraph g = make_star_graph();
  const PropagationPlan plan = PropagationPlan::build(g, 0.1);

  std::vector<Gid> expected_fwd;
  std::vector<Gid> expected_rev;
  for (Gid v = 0; v < g.vertex_count(); ++v) {
    if (g.forward().out_degree(v) == 0) expected_fwd.push_back(v);
    if (g.paired_in_degree(v) == 0 && g.unpaired_in_degree(v) == 0) {
      expected_rev.push_back(v);
    }
  }
  EXPECT_EQ(std::vector<Gid>(plan.forward_sinks().begin(),
                             plan.forward_sinks().end()),
            expected_fwd);
  EXPECT_EQ(std::vector<Gid>(plan.reversed_sinks().begin(),
                             plan.reversed_sinks().end()),
            expected_rev);
  // The isolated tail vertices appear in both lists.
  EXPECT_GE(plan.forward_sinks().size(), kIsolated);
  EXPECT_GE(plan.reversed_sinks().size(), kIsolated);
  EXPECT_GT(plan.bytes(), 0u);
}

TEST(PropagationPlanTest, UnpairedWeightZeroMakesUnpairedOnlySinks) {
  const UnifiedGraph g = make_star_graph();
  const PropagationPlan plan = PropagationPlan::build(g, 0.0);
  // Spokes in the unpaired half have only an unpaired in-edge, so at
  // weight 0 they become reversed sinks and their in-slots carry 0.
  for (Gid v = 0; v < g.vertex_count(); ++v) {
    const bool sink = static_cast<double>(g.paired_in_degree(v)) +
                          0.0 * static_cast<double>(g.unpaired_in_degree(v)) ==
                      0.0;
    const bool listed =
        std::binary_search(plan.reversed_sinks().begin(),
                           plan.reversed_sinks().end(), v);
    EXPECT_EQ(sink, listed) << "vertex " << v;
  }
  EXPECT_GT(plan.reversed_sinks().size(), kIsolated);
}

TEST(PropagationPlanTest, BuildRejectsBadWeight) {
  const UnifiedGraph g = make_star_graph();
  EXPECT_THROW((void)PropagationPlan::build(g, -0.1), std::invalid_argument);
  EXPECT_THROW((void)PropagationPlan::build(g, 1.5), std::invalid_argument);
}

TEST(PropagationPlanTest, KernelRejectsMismatchedPlan) {
  const UnifiedGraph g1 = make_star_graph();
  const UnifiedGraph g2 = make_star_graph();
  const PropagationPlan plan = PropagationPlan::build(g1, 0.1);
  EXPECT_TRUE(plan.matches(g1, 0.1));
  EXPECT_FALSE(plan.matches(g2, 0.1));
  EXPECT_FALSE(plan.matches(g1, 0.2));
  EXPECT_THROW((void)run_faultyrank(g2, plan), std::invalid_argument);
  FaultyRankConfig other_weight;
  other_weight.unpaired_weight = 0.2;
  EXPECT_THROW((void)run_faultyrank(g1, plan, other_weight),
               std::invalid_argument);
}

TEST(PropagationPlanTest, PlanIsBuiltIdenticallyOnAnyPool) {
  const UnifiedGraph g = make_power_law_graph();
  const PropagationPlan serial = PropagationPlan::build(g, 0.1);
  for (const std::size_t threads : {1u, 4u, 8u}) {
    ThreadPool pool(threads);
    const PropagationPlan parallel = PropagationPlan::build(g, 0.1, &pool);
    expect_bits_equal(
        std::vector<double>(serial.coeff_rev().begin(),
                            serial.coeff_rev().end()),
        std::vector<double>(parallel.coeff_rev().begin(),
                            parallel.coeff_rev().end()),
        "coeff_rev");
    expect_bits_equal(
        std::vector<double>(serial.coeff_fwd().begin(),
                            serial.coeff_fwd().end()),
        std::vector<double>(parallel.coeff_fwd().begin(),
                            parallel.coeff_fwd().end()),
        "coeff_fwd");
  }
}

// The golden contract: for every graph shape and pool shape, the plan
// kernel and the naive reference produce bit-identical ranks, iteration
// counts, and diffs. The reference with no pool is the single oracle
// everything else is held to. Each parameter is one pool shape; the
// instantiation keeps the name AllNorms from when it also swept the
// convergence norms, so the ctest names stay stable.
enum class PoolShape { kNoPool, kOneThread, kFourThreads, kEightThreads };

constexpr std::size_t kPoolThreads[] = {0, 1, 4, 8};

class CrossKernelGoldenTest : public ::testing::TestWithParam<PoolShape> {};

void run_golden(const UnifiedGraph& g, PoolShape shape) {
  FaultyRankConfig config;
  config.epsilon = 1e-7;
  config.max_iterations = 40;

  const FaultyRankResult oracle = run_faultyrank_reference(g, config);
  const PropagationPlan plan =
      PropagationPlan::build(g, config.unpaired_weight);

  const std::size_t threads = kPoolThreads[static_cast<int>(shape)];
  if (threads == 0) {
    expect_results_equal(oracle, run_faultyrank(g, plan, config),
                         "plan/serial");
    return;
  }
  ThreadPool pool(threads);
  const std::string tag = "pool=" + std::to_string(threads);
  expect_results_equal(oracle, run_faultyrank_reference(g, config, &pool),
                       tag + " reference");
  expect_results_equal(oracle, run_faultyrank(g, plan, config, &pool),
                       tag + " plan");
}

TEST_P(CrossKernelGoldenTest, BitIdenticalOnStarGraph) {
  run_golden(make_star_graph(), GetParam());
}

TEST_P(CrossKernelGoldenTest, BitIdenticalOnPowerLawGraph) {
  run_golden(make_power_law_graph(), GetParam());
}

TEST_P(CrossKernelGoldenTest, BitIdenticalOnHeavyTailedCatalogGraph) {
  const GeneratedGraph gen = make_amazon_like(0.05, 99);
  run_golden(UnifiedGraph::from_edges(gen.vertex_count, gen.edges),
             GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllNorms, CrossKernelGoldenTest,
                         ::testing::Values(PoolShape::kNoPool,
                                           PoolShape::kOneThread,
                                           PoolShape::kFourThreads,
                                           PoolShape::kEightThreads));

TEST(CrossKernelGoldenTest, BitIdenticalUnderWarmStart) {
  const UnifiedGraph g = make_power_law_graph();
  FaultyRankConfig cold;
  cold.epsilon = 1e-4;
  const FaultyRankResult fix = run_faultyrank_reference(g, cold);
  ASSERT_TRUE(fix.converged);

  FaultyRankConfig warm = cold;
  warm.initial_id_ranks = &fix.id_rank;
  warm.initial_prop_ranks = &fix.prop_rank;
  const FaultyRankResult oracle = run_faultyrank_reference(g, warm);
  EXPECT_LE(oracle.iterations, fix.iterations);

  ThreadPool pool(4);
  const PropagationPlan plan = PropagationPlan::build(g, warm.unpaired_weight);
  expect_results_equal(oracle, run_faultyrank(g, plan, warm, &pool),
                       "warm start plan");
}

TEST(CrossKernelGoldenTest, OnePlanServesManyRuns) {
  const UnifiedGraph g = make_power_law_graph();
  FaultyRankConfig config;
  config.epsilon = 1e-7;
  const PropagationPlan plan =
      PropagationPlan::build(g, config.unpaired_weight);
  const FaultyRankResult first = run_faultyrank(g, plan, config);
  const FaultyRankResult second = run_faultyrank(g, plan, config);
  expect_results_equal(first, second, "plan reuse");
}

}  // namespace
}  // namespace faultyrank
