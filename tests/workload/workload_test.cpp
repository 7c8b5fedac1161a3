#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "aggregator/aggregator.h"
#include "scanner/scanner.h"
#include "testing/fixtures.h"
#include "workload/namespace_gen.h"
#include "workload/rmat.h"
#include "workload/synthetic_graphs.h"

namespace faultyrank {
namespace {

TEST(RmatTest, ProducesRequestedScaleAndDegree) {
  const GeneratedGraph g = generate_rmat({.scale = 12, .avg_degree = 8});
  EXPECT_EQ(g.vertex_count, 1u << 12);
  EXPECT_EQ(g.edges.size(), (1u << 12) * 8u);
  for (const auto& e : g.edges) {
    EXPECT_LT(e.src, g.vertex_count);
    EXPECT_LT(e.dst, g.vertex_count);
  }
}

TEST(RmatTest, DeterministicForFixedSeed) {
  const GeneratedGraph a = generate_rmat({.scale = 10, .avg_degree = 4});
  const GeneratedGraph b = generate_rmat({.scale = 10, .avg_degree = 4});
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i], b.edges[i]);
  }
}

TEST(RmatTest, SkewedQuadrantsProduceHeavyTail) {
  const GeneratedGraph g = generate_rmat({.scale = 12, .avg_degree = 8});
  std::vector<std::uint64_t> out_degree(g.vertex_count, 0);
  for (const auto& e : g.edges) ++out_degree[e.src];
  const auto max_degree =
      *std::max_element(out_degree.begin(), out_degree.end());
  // Graph500 parameters concentrate edges: the hottest vertex is far
  // above the average degree of 8.
  EXPECT_GT(max_degree, 200u);
}

TEST(RmatTest, RejectsBadParameters) {
  EXPECT_THROW(generate_rmat({.scale = 0}), std::invalid_argument);
  EXPECT_THROW(generate_rmat({.scale = 32}), std::invalid_argument);
  EXPECT_THROW(generate_rmat({.scale = 10, .avg_degree = 4, .a = 0.9,
                              .b = 0.3, .c = 0.3}),
               std::invalid_argument);
}

TEST(SyntheticGraphsTest, AmazonLikeMatchesPublishedCountsAtFullScale) {
  const GeneratedGraph g = make_amazon_like(1.0);
  EXPECT_EQ(g.vertex_count, 403393u);
  EXPECT_EQ(g.edges.size(), 4886816u);
}

TEST(SyntheticGraphsTest, AmazonLikeScalesDown) {
  const GeneratedGraph g = make_amazon_like(0.01);
  EXPECT_NEAR(static_cast<double>(g.vertex_count), 4033.93, 10.0);
  EXPECT_NEAR(static_cast<double>(g.edges.size()), 48868.0, 100.0);
  // Copy model yields a heavy in-degree tail.
  std::vector<std::uint64_t> in_degree(g.vertex_count, 0);
  for (const auto& e : g.edges) ++in_degree[e.dst];
  const auto max_in = *std::max_element(in_degree.begin(), in_degree.end());
  EXPECT_GT(max_in, 50u);
}

TEST(SyntheticGraphsTest, RoadNetLikeHasLowBoundedDegree) {
  const GeneratedGraph g = make_roadnet_like(0.01);
  EXPECT_GT(g.vertex_count, 15000u);
  std::vector<std::uint32_t> out_degree(g.vertex_count, 0);
  for (const auto& e : g.edges) {
    ++out_degree[e.src];
    EXPECT_LT(e.src, g.vertex_count);
    EXPECT_LT(e.dst, g.vertex_count);
  }
  // Lattice: nobody exceeds 4 neighbours.
  EXPECT_LE(*std::max_element(out_degree.begin(), out_degree.end()), 4u);
  // Thinned to roughly the roadNet average degree (~2.8).
  const double avg = static_cast<double>(g.edges.size()) /
                     static_cast<double>(g.vertex_count);
  EXPECT_NEAR(avg, 2.8, 0.4);
}

TEST(NamespaceGenTest, HitsTargetFileCount) {
  LustreCluster cluster(4, StripePolicy{64 * 1024, -1});
  NamespaceConfig config;
  config.file_count = 500;
  config.seed = 101;
  const NamespaceStats stats = populate_namespace(cluster, config);
  EXPECT_EQ(stats.files, 500u);
  EXPECT_GT(stats.directories, 20u);
  // Total MDS inodes = root + dirs + files.
  EXPECT_EQ(cluster.mdt_inodes_used(), 1 + stats.directories + stats.files);
  EXPECT_EQ(cluster.total_ost_objects(), stats.stripe_objects);
}

TEST(NamespaceGenTest, FileSizeDistributionMatchesCarnsStatistics) {
  LustreCluster cluster(8, StripePolicy{64 * 1024, -1});
  NamespaceConfig config;
  config.file_count = 4000;
  config.seed = 102;
  const NamespaceStats stats = populate_namespace(cluster, config);
  const double under_1mb = static_cast<double>(stats.files_under_1mb) /
                           static_cast<double>(stats.files);
  const double under_2mb = static_cast<double>(stats.files_under_2mb) /
                           static_cast<double>(stats.files);
  // The paper cites ~86 % < 1 MB and ~95 % < 2 MB.
  EXPECT_NEAR(under_1mb, 0.86, 0.04);
  EXPECT_NEAR(under_2mb, 0.95, 0.03);
}

TEST(NamespaceGenTest, StripingFollowsPaperShrinkRule) {
  LustreCluster cluster(8, StripePolicy{64 * 1024, -1});
  NamespaceConfig config;
  config.file_count = 1000;
  config.seed = 103;
  populate_namespace(cluster, config);
  cluster.mdt().image.for_each_inode([&](const Inode& inode) {
    if (inode.type != InodeType::kRegular) return;
    const auto stripes = inode.lov_ea->stripes.size();
    const auto expected = std::clamp<std::uint64_t>(
        (inode.size_bytes + 64 * 1024 - 1) / (64 * 1024), 1, 8);
    EXPECT_EQ(stripes, expected);
  });
}

TEST(NamespaceGenTest, PopulationIsDeterministic) {
  LustreCluster c1 = testing::make_populated_cluster(200, 104);
  LustreCluster c2 = testing::make_populated_cluster(200, 104);
  EXPECT_EQ(c1.mdt_inodes_used(), c2.mdt_inodes_used());
  EXPECT_EQ(c1.total_ost_objects(), c2.total_ost_objects());
}

TEST(NamespaceGenTest, RepeatedPopulationRoundsDoNotCollide) {
  LustreCluster cluster(4, StripePolicy{64 * 1024, -1});
  NamespaceConfig config;
  config.file_count = 100;
  config.seed = 105;
  populate_namespace(cluster, config);
  const auto after_first = cluster.mdt_inodes_used();
  populate_namespace(cluster, config);  // same config, more files
  EXPECT_GT(cluster.mdt_inodes_used(), after_first);
}

TEST(AgingTest, ChurnDeletesAndRecreates) {
  LustreCluster cluster = testing::make_populated_cluster(300, 106);
  NamespaceConfig config;
  config.seed = 106;
  const AgingStats stats = age_cluster(cluster, config, 3, 0.2);
  EXPECT_GT(stats.deleted, 100u);
  EXPECT_GE(stats.created, stats.deleted / 2);
}

TEST(AgingTest, AgedClusterStaysConsistent) {
  LustreCluster cluster = testing::make_populated_cluster(200, 107);
  NamespaceConfig config;
  config.seed = 107;
  age_cluster(cluster, config, 2, 0.3);
  // Aging through the namespace API never breaks metadata invariants.
  ClusterScan scan = scan_cluster(cluster);
  const AggregationResult agg = aggregate(scan.results);
  EXPECT_TRUE(agg.graph.unpaired_edges().empty());
}


TEST(NamespaceGenTest, HardLinksAreCreatedAndConsistent) {
  LustreCluster cluster(4, StripePolicy{64 * 1024, -1});
  NamespaceConfig config;
  config.file_count = 1000;
  config.hardlink_ratio = 0.05;
  config.seed = 108;
  const NamespaceStats stats = populate_namespace(cluster, config);
  EXPECT_GT(stats.hard_links, 20u);
  ClusterScan scan = scan_cluster(cluster);
  const AggregationResult agg = aggregate(scan.results);
  EXPECT_TRUE(agg.graph.unpaired_edges().empty());
}

}  // namespace
}  // namespace faultyrank
