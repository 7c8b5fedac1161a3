#include "core/faultyrank.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/random.h"
#include "testing/fixtures.h"
#include "workload/rmat.h"

namespace faultyrank {
namespace {

using testing::Fig3Fids;
using testing::make_fig3_consistent_graph;
using testing::make_fig3_graph;

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(FaultyRankTest, EmptyGraphConverges) {
  const UnifiedGraph g = UnifiedGraph::from_edges(0, {});
  const FaultyRankResult r = run_faultyrank(g);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.id_rank.empty());
}

TEST(FaultyRankTest, RejectsInvalidConfig) {
  const UnifiedGraph g = make_fig3_graph();
  FaultyRankConfig bad_epsilon;
  bad_epsilon.epsilon = 0.0;
  EXPECT_THROW((void)run_faultyrank(g, bad_epsilon), std::invalid_argument);
  FaultyRankConfig bad_weight;
  bad_weight.unpaired_weight = 1.5;
  EXPECT_THROW((void)run_faultyrank(g, bad_weight), std::invalid_argument);
}

TEST(FaultyRankTest, MassIsConservedEachPass) {
  const UnifiedGraph g = make_fig3_graph();
  FaultyRankConfig config;
  config.max_iterations = 1;
  config.epsilon = 1e-12;
  const FaultyRankResult r = run_faultyrank(g, config);
  const double n = static_cast<double>(g.vertex_count());
  EXPECT_NEAR(sum(r.id_rank), n, 1e-9);
  EXPECT_NEAR(sum(r.prop_rank), n, 1e-9);
}

TEST(FaultyRankTest, MassConservedAtConvergenceOnRandomGraph) {
  const GeneratedGraph gen = generate_rmat({.scale = 10, .avg_degree = 4});
  const UnifiedGraph g =
      UnifiedGraph::from_edges(gen.vertex_count, gen.edges);
  const FaultyRankResult r = run_faultyrank(g);
  const double n = static_cast<double>(g.vertex_count());
  EXPECT_NEAR(sum(r.id_rank), n, n * 1e-9);
  EXPECT_NEAR(sum(r.prop_rank), n, n * 1e-9);
}

// Table II: on the Fig. 3 example the corrupted fields — c's property
// and d's id — carry the extreme low scores, well separated from every
// healthy field. (The paper reports 0.05 vs ≥0.2 on the mass-1 scale.)
TEST(FaultyRankTest, TableTwoExampleSeparatesCorruptedFields) {
  const UnifiedGraph g = make_fig3_graph();
  FaultyRankConfig config;
  config.epsilon = 1e-3;  // tighter than the paper for a crisp fixpoint
  const FaultyRankResult r = run_faultyrank(g, config);
  ASSERT_TRUE(r.converged);

  const Fig3Fids fids;
  const Gid a = g.vertices().lookup(fids.a);
  const Gid b = g.vertices().lookup(fids.b);
  const Gid c = g.vertices().lookup(fids.c);
  const Gid d = g.vertices().lookup(fids.d);

  const double c_prop = r.normalized_prop_rank(c);
  const double d_id = r.normalized_id_rank(d);
  // Corrupted fields sit far below the healthy ones.
  for (const Gid v : {a, b}) {
    EXPECT_GT(r.normalized_id_rank(v), 3 * c_prop);
    EXPECT_GT(r.normalized_prop_rank(v), 3 * d_id);
  }
  EXPECT_GT(r.normalized_id_rank(c), 2 * c_prop);
  EXPECT_GT(r.normalized_prop_rank(d), 2 * d_id);
  // And below the detection threshold (0.4 × mean).
  EXPECT_LT(c_prop, 0.4);
  EXPECT_LT(d_id, 0.4);
}

TEST(FaultyRankTest, ConsistentGraphHasNoConvictableFields) {
  const UnifiedGraph g = make_fig3_consistent_graph();
  const FaultyRankResult r = run_faultyrank(g);
  ASSERT_TRUE(r.converged);
  for (Gid v = 0; v < g.vertex_count(); ++v) {
    EXPECT_GT(r.normalized_id_rank(v), 0.4) << "vertex " << v;
    EXPECT_GT(r.normalized_prop_rank(v), 0.4) << "vertex " << v;
  }
}

// Fig. 4: a↔b paired; c→a unpaired (a = 0, b = 1, c = 2).
UnifiedGraph make_fig4_graph() {
  const std::vector<GidEdge> edges = {
      {0, 1, EdgeKind::kGeneric},  // a→b
      {1, 0, EdgeKind::kGeneric},  // b→a
      {2, 0, EdgeKind::kGeneric},  // c→a (no ack)
  };
  return UnifiedGraph::from_edges(3, edges);
}

// Fig. 4: in the reversed pass, a's id mass splits 10:1 between the
// acknowledged pointer (b) and the wishful one (c).
TEST(FaultyRankTest, WeightedDistributionSplitsTenToOne) {
  const UnifiedGraph g = make_fig4_graph();
  FaultyRankConfig config;
  config.max_iterations = 1;
  config.epsilon = 1e-12;
  const FaultyRankResult r = run_faultyrank(g, config);

  // After pass 1 (init prop = 1): id_a = 1 (from b) + 1 (from c) + sink
  // share 0 = 2; id_b = 1 from a; id_c = 0.
  EXPECT_NEAR(r.id_rank[0], 2.0, 1e-12);
  EXPECT_NEAR(r.id_rank[1], 1.0, 1e-12);
  EXPECT_NEAR(r.id_rank[2], 0.0, 1e-12);

  // Pass 2: a distributes id_a over reversed out-edges to b (w=1) and c
  // (w=0.1): b gets 2·(10/11), c gets 2·(1/11). b sends id_b to a.
  // c is a reversed sink (no in-edges in G): spreads id_c = 0.
  EXPECT_NEAR(r.prop_rank[1], 2.0 * 10.0 / 11.0, 1e-12);
  EXPECT_NEAR(r.prop_rank[2], 2.0 / 11.0, 1e-12);
  EXPECT_NEAR(r.prop_rank[0], 1.0, 1e-12);
}

TEST(FaultyRankTest, UnpairedWeightOneRemovesPenalty) {
  const UnifiedGraph g = make_fig4_graph();
  FaultyRankConfig config;
  config.max_iterations = 1;
  config.epsilon = 1e-12;
  config.unpaired_weight = 1.0;
  const FaultyRankResult r = run_faultyrank(g, config);
  // Equal split: b and c each get id_a/2.
  EXPECT_NEAR(r.prop_rank[1], 1.0, 1e-12);
  EXPECT_NEAR(r.prop_rank[2], 1.0, 1e-12);
}

TEST(FaultyRankTest, SinkMassIsRedistributedUniformly) {
  // Single edge 0→1; vertex 1 is a sink in G.
  const std::vector<GidEdge> edges = {{0, 1, EdgeKind::kGeneric}};
  const UnifiedGraph g = UnifiedGraph::from_edges(2, edges);
  FaultyRankConfig config;
  config.max_iterations = 1;
  config.epsilon = 1e-12;
  const FaultyRankResult r = run_faultyrank(g, config);
  // Pass 1: sink share = prop[1]/2 = 0.5 to each; vertex 1 also gets
  // prop[0]/1 = 1. id = [0.5, 1.5].
  EXPECT_NEAR(r.id_rank[0], 0.5, 1e-12);
  EXPECT_NEAR(r.id_rank[1], 1.5, 1e-12);
  EXPECT_NEAR(sum(r.id_rank), 2.0, 1e-12);
}

// Alg. 1's one stopping test, worked by hand on the Fig. 4 graph: after
// one iteration from initial_rank 0.5, id = [1, 0.5, 0], so Σ|Δ id_rank|
// = 0.5 + 0 + 0.5 = 1 and the diff is 1 / (3 · 0.5) = 2/3. (At
// initial_rank 1.0 a diff that forgot the initial_rank would read the
// same.) The cross-kernel goldens compare the two kernels with each
// other, so a change to the formula in both would pass them; this pins
// it in each.
TEST(FaultyRankTest, FinalDiffIsL1ChangeOverTotalMass) {
  const UnifiedGraph g = make_fig4_graph();
  FaultyRankConfig config;
  config.max_iterations = 1;
  config.initial_rank = 0.5;
  const FaultyRankResult plan = run_faultyrank(g, config);
  const FaultyRankResult reference = run_faultyrank_reference(g, config);
  for (const FaultyRankResult* r : {&plan, &reference}) {
    EXPECT_EQ(r->iterations, 1u);
    EXPECT_FALSE(r->converged);  // 2/3 is above the default ε = 0.1
    ASSERT_EQ(r->id_rank, (std::vector<double>{1.0, 0.5, 0.0}));
    double l1 = 0.0;
    for (const double rank : r->id_rank) {
      l1 += std::abs(rank - config.initial_rank);
    }
    EXPECT_EQ(l1, 1.0);
    EXPECT_EQ(r->final_diff, l1 / (3 * config.initial_rank));
    EXPECT_EQ(r->final_diff, 2.0 / 3.0);
  }
}

TEST(FaultyRankTest, ConvergesWithinIterationCap) {
  const GeneratedGraph gen = generate_rmat({.scale = 12, .avg_degree = 8});
  const UnifiedGraph g =
      UnifiedGraph::from_edges(gen.vertex_count, gen.edges);
  FaultyRankConfig config;
  config.epsilon = 1e-6;
  const FaultyRankResult r = run_faultyrank(g, config);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, config.max_iterations);
  EXPECT_GE(r.iterations, 2u);
}

TEST(FaultyRankTest, ParallelMatchesSerial) {
  const GeneratedGraph gen = generate_rmat({.scale = 11, .avg_degree = 6});
  const UnifiedGraph g =
      UnifiedGraph::from_edges(gen.vertex_count, gen.edges);
  FaultyRankConfig config;
  config.max_iterations = 10;
  config.epsilon = 1e-12;
  const FaultyRankResult serial = run_faultyrank(g, config, nullptr);
  ThreadPool pool(4);
  const FaultyRankResult parallel = run_faultyrank(g, config, &pool);
  ASSERT_EQ(serial.id_rank.size(), parallel.id_rank.size());
  for (std::size_t v = 0; v < serial.id_rank.size(); ++v) {
    EXPECT_NEAR(serial.id_rank[v], parallel.id_rank[v], 1e-9);
    EXPECT_NEAR(serial.prop_rank[v], parallel.prop_rank[v], 1e-9);
  }
}

TEST(FaultyRankTest, InitialRankScalesLinearly) {
  const UnifiedGraph g = make_fig3_graph();
  FaultyRankConfig unit;
  unit.max_iterations = 5;
  unit.epsilon = 1e-12;
  FaultyRankConfig scaled = unit;
  scaled.initial_rank = 0.25;
  const auto r1 = run_faultyrank(g, unit);
  const auto r2 = run_faultyrank(g, scaled);
  for (Gid v = 0; v < g.vertex_count(); ++v) {
    EXPECT_NEAR(r1.id_rank[v] * 0.25, r2.id_rank[v], 1e-9);
    // Mean-normalized ranks are invariant to the initialization.
    EXPECT_NEAR(r1.normalized_id_rank(v), r2.normalized_id_rank(v), 1e-9);
  }
}

// Property sweep: mass conservation and normalized-rank positivity on
// random graphs of varied shape.
class FaultyRankPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FaultyRankPropertyTest, InvariantsOnRandomGraphs) {
  Rng rng(GetParam());
  const std::size_t n = 2 + rng.below(300);
  const std::size_t m = rng.below(6 * n);
  std::vector<GidEdge> edges;
  for (std::size_t i = 0; i < m; ++i) {
    edges.push_back({static_cast<Gid>(rng.below(n)),
                     static_cast<Gid>(rng.below(n)), EdgeKind::kGeneric});
  }
  const UnifiedGraph g = UnifiedGraph::from_edges(n, edges);
  const FaultyRankResult r = run_faultyrank(g);
  EXPECT_NEAR(sum(r.id_rank), static_cast<double>(n), n * 1e-9);
  EXPECT_NEAR(sum(r.prop_rank), static_cast<double>(n), n * 1e-9);
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_GE(r.id_rank[v], 0.0);
    EXPECT_GE(r.prop_rank[v], 0.0);
    EXPECT_TRUE(std::isfinite(r.id_rank[v]));
    EXPECT_TRUE(std::isfinite(r.prop_rank[v]));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, FaultyRankPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

}  // namespace
}  // namespace faultyrank
