#include "aggregator/aggregator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "faults/injector.h"
#include "testing/fixtures.h"
#include "testing/graph_equal.h"

namespace faultyrank {
namespace {

TEST(AggregatorTest, MergesClusterScanIntoUnifiedGraph) {
  LustreCluster cluster = testing::make_populated_cluster(100, 11);
  ClusterScan scan = scan_cluster(cluster);
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  for (const auto& result : scan.results) {
    vertices += result.graph.vertices.size();
    edges += result.graph.edges.size();
  }
  const AggregationResult agg = aggregate(scan.results);

  // Healthy cluster: every scanned vertex is unique, every edge kept.
  EXPECT_EQ(agg.graph.vertex_count(), vertices);
  EXPECT_EQ(agg.graph.edge_count(), edges);
}

TEST(AggregatorTest, ChargesTransferOnlyForRemotePartialGraphs) {
  LustreCluster cluster = testing::make_populated_cluster(100, 12);
  ClusterScan scan = scan_cluster(cluster);
  std::uint64_t remote_bytes = 0;
  for (const auto& result : scan.results) {
    if (!result.local_to_mds) remote_bytes += result.graph.wire_bytes();
  }
  const AggregationResult agg = aggregate(scan.results);

  EXPECT_EQ(agg.transferred_bytes, remote_bytes);
  EXPECT_GT(agg.transferred_bytes, 0u);
  EXPECT_GT(agg.sim_transfer_seconds, 0.0);
}

TEST(AggregatorTest, SlowerNetworkCostsMoreVirtualTime) {
  LustreCluster cluster = testing::make_populated_cluster(100, 13);
  ClusterScan scan = scan_cluster(cluster);
  std::vector<ScanResult> copy = scan.results;  // aggregate() consumes
  const NetModel fast{.latency_seconds = 1e-5, .bandwidth_bytes_per_s = 10e9};
  const NetModel slow{.latency_seconds = 1e-3, .bandwidth_bytes_per_s = 100e6};
  EXPECT_GT(aggregate(scan.results, slow).sim_transfer_seconds,
            aggregate(copy, fast).sim_transfer_seconds);
}

TEST(AggregatorTest, RemapAssignsDenseGids) {
  LustreCluster cluster = testing::make_populated_cluster(80, 14);
  ClusterScan scan = scan_cluster(cluster);
  const AggregationResult agg = aggregate(scan.results);
  // Dense: every gid < vertex_count maps back to a unique FID.
  for (Gid v = 0; v < agg.graph.vertex_count(); ++v) {
    EXPECT_EQ(agg.graph.vertices().lookup(agg.graph.vertices().fid_of(v)), v);
  }
}

TEST(AggregatorTest, WireRoundTripPreservesGraphExactly) {
  // The aggregator decodes what the network delivered; a corrupted
  // partial graph must surface as an error, not silent data loss.
  LustreCluster cluster = testing::make_populated_cluster(50, 15);
  const ClusterScan scan = scan_cluster(cluster);
  for (const auto& result : scan.results) {
    const PartialGraph decoded =
        PartialGraph::deserialize(result.graph.serialize());
    EXPECT_EQ(decoded.vertices.size(), result.graph.vertices.size());
    EXPECT_EQ(decoded.edges.size(), result.graph.edges.size());
  }
}

// aggregate() consumes what it merges, and only that: every surviving
// partial is released (an OSS's once encoded, the MDS's once merged),
// every other field of every scan keeps its value, a failed slot is
// not touched, and a pooled run merges the same graph.
TEST(AggregatorTest, ConsumesEveryMergedPartialAndNothingElse) {
  LustreCluster cluster = testing::make_populated_cluster(150, 16);
  FaultInjector injector(cluster, 17);
  injector.inject_campaign(4);
  ClusterScan scan = scan_cluster(cluster);
  ASSERT_EQ(scan.results.size(), 5u);
  // A failed slot that still holds records, so that any touch shows,
  // and quarantines on a local and a remote survivor.
  ScanResult& failed = scan.results[2];
  failed.status = ScanStatus::kFailed;
  failed.error = "server crashed";
  ASSERT_FALSE(failed.graph.vertices.empty());
  scan.results[0].quarantined.push_back(Fid{0x200000400, 0xfffff0, 0});
  scan.results[3].status = ScanStatus::kDegraded;
  scan.results[3].retries = 7;
  scan.results[3].quarantined.push_back(Fid{0x100010003, 0xfffff0, 0});
  const std::vector<ScanResult> before = scan.results;
  std::vector<ScanResult> pooled_scans = scan.results;

  const AggregationResult serial = aggregate(scan.results);
  ThreadPool pool(4);
  const AggregationResult pooled = aggregate(pooled_scans, {}, &pool);
  testing::expect_identical(serial.graph, pooled.graph);
  EXPECT_EQ(serial.transferred_bytes, pooled.transferred_bytes);
  EXPECT_EQ(serial.coverage.quarantined, pooled.coverage.quarantined);
  EXPECT_EQ(serial.coverage.quarantined.size(), 2u);
  EXPECT_DOUBLE_EQ(serial.coverage.coverage, 0.8);

  for (const std::vector<ScanResult>* after : {&scan.results, &pooled_scans}) {
    for (std::size_t i = 0; i < before.size(); ++i) {
      SCOPED_TRACE(before[i].graph.server);
      const ScanResult& was = before[i];
      const ScanResult& now = (*after)[i];
      EXPECT_EQ(now.graph.server, was.graph.server);
      EXPECT_EQ(now.local_to_mds, was.local_to_mds);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(now.sim_seconds),
                std::bit_cast<std::uint64_t>(was.sim_seconds));
      EXPECT_EQ(now.inodes_scanned, was.inodes_scanned);
      EXPECT_EQ(now.directories_visited, was.directories_visited);
      EXPECT_EQ(now.status, was.status);
      EXPECT_EQ(now.read_attempts, was.read_attempts);
      EXPECT_EQ(now.retries, was.retries);
      EXPECT_EQ(now.quarantined, was.quarantined);
      EXPECT_EQ(now.error, was.error);
      if (was.status == ScanStatus::kFailed) {
        EXPECT_EQ(now.graph.vertices, was.graph.vertices);
        EXPECT_EQ(now.graph.edges, was.graph.edges);
      } else {
        EXPECT_EQ(now.graph.vertices.capacity(), 0u);
        EXPECT_EQ(now.graph.edges.capacity(), 0u);
      }
    }
  }
}

TEST(AggregatorTest, EmptyScanYieldsEmptyGraph) {
  const AggregationResult agg = aggregate({});
  EXPECT_EQ(agg.graph.vertex_count(), 0u);
  EXPECT_EQ(agg.transferred_bytes, 0u);
}

}  // namespace
}  // namespace faultyrank
