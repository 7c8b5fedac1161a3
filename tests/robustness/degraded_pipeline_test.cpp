// Degraded-coverage pipeline: a crashed server shrinks coverage instead
// of aborting the run, and the result names every failed server.
#include <gtest/gtest.h>

#include <algorithm>

#include "aggregator/aggregator.h"
#include "pfs/server.h"
#include "testing/fixtures.h"

namespace faultyrank {
namespace {

TEST(DegradedPipelineTest, StrictModeNamesEveryFailedServer) {
  const LustreCluster cluster = testing::make_populated_cluster(150, 31, 4);
  OpFaultConfig fault_config;
  fault_config.crash_after_reads["oss0"] = 4;
  fault_config.crash_after_reads["oss2"] = 9;
  OpFaultSchedule faults(fault_config);

  PipelineConfig config;
  config.faults = &faults;
  const PipelineResult result = scan_and_aggregate(cluster, config);
  // Both crashes are reported, in slot order — the first failure does
  // not discard the second server's outcome.
  ASSERT_EQ(result.failed_servers.size(), 2u);
  EXPECT_EQ(result.failed_servers[0], "oss0");
  EXPECT_EQ(result.failed_servers[1], "oss2");
  EXPECT_EQ(result.scan.results[1].status, ScanStatus::kFailed);
  EXPECT_EQ(result.scan.results[3].status, ScanStatus::kFailed);
}

TEST(DegradedPipelineTest, CrashedServerDegradesCoverageInsteadOfAborting) {
  const LustreCluster cluster = testing::make_populated_cluster(150, 32, 4);

  // Baseline: full coverage.
  const PipelineResult full = scan_and_aggregate(cluster, PipelineConfig{});
  EXPECT_EQ(full.agg.coverage.coverage, 1.0);
  EXPECT_TRUE(full.agg.coverage.complete());
  EXPECT_TRUE(full.failed_servers.empty());

  OpFaultConfig fault_config;
  fault_config.crash_after_reads["oss1"] = 6;
  OpFaultSchedule faults(fault_config);
  PipelineConfig config;
  config.faults = &faults;

  const PipelineResult degraded = scan_and_aggregate(cluster, config);
  // 1 MDT + 4 OSTs, one lost: 4/5 coverage.
  EXPECT_DOUBLE_EQ(degraded.agg.coverage.coverage, 4.0 / 5.0);
  ASSERT_EQ(degraded.failed_servers.size(), 1u);
  EXPECT_EQ(degraded.failed_servers[0], "oss1");

  // The lost FID space is exactly oss1's sequence.
  ASSERT_EQ(degraded.agg.coverage.lost_sequences.size(), 1u);
  EXPECT_EQ(degraded.agg.coverage.lost_sequences[0],
            cluster.osts()[1].fids.seq());

  // The unified graph is built from the survivors only. Lost objects
  // that surviving metadata still references remain visible as phantom
  // (unscanned) vertices, but every edge the crashed OST would have
  // contributed — its ObjParent back-pointers — is gone.
  const std::uint64_t lost_edges =
      scan_ost(cluster.osts()[1]).graph.edges.size();
  EXPECT_GT(lost_edges, 0u);
  EXPECT_EQ(degraded.agg.graph.edge_count() + lost_edges,
            full.agg.graph.edge_count());
  EXPECT_LE(degraded.agg.graph.vertex_count(), full.agg.graph.vertex_count());
}

TEST(DegradedPipelineTest, QuarantinedInodesFlowIntoCoverage) {
  const LustreCluster cluster = testing::make_populated_cluster(150, 33, 4);
  OpFaultConfig fault_config;
  fault_config.transient_eio_rate = 0.2;
  fault_config.max_fault_attempts = 2;
  OpFaultSchedule faults(fault_config);
  PipelineConfig config;
  config.faults = &faults;
  config.retry.max_attempts = 1;  // exhaust immediately → quarantine

  const PipelineResult result = scan_and_aggregate(cluster, config);
  // No server failed outright, so server coverage stays 1.0 ...
  EXPECT_EQ(result.agg.coverage.coverage, 1.0);
  EXPECT_TRUE(result.failed_servers.empty());
  // ... but the quarantined inodes are recorded, so the coverage is not
  // "complete" and the detector can treat those FIDs as unobservable.
  EXPECT_FALSE(result.agg.coverage.quarantined.empty());
  EXPECT_FALSE(result.agg.coverage.complete());
  for (const Fid& fid : result.agg.coverage.quarantined) {
    EXPECT_TRUE(result.agg.coverage.fid_lost(fid));
  }
}

TEST(DegradedPipelineTest, LegacyEntryPointStaysStrictAndFaultFree) {
  // A run without faults or a checkpoint covers every server and
  // resumes nothing.
  const LustreCluster cluster = testing::make_populated_cluster(150, 34, 4);
  const PipelineResult result = scan_and_aggregate(cluster, PipelineConfig{});
  EXPECT_TRUE(result.failed_servers.empty());
  EXPECT_EQ(result.agg.coverage.coverage, 1.0);
  EXPECT_EQ(result.servers_resumed, 0u);
  for (const ScanResult& scan : result.scan.results) {
    EXPECT_EQ(scan.status, ScanStatus::kComplete);
  }
}

}  // namespace
}  // namespace faultyrank
