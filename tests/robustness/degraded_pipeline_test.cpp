// Degraded-coverage checks: a crashed server shrinks coverage instead
// of aborting the check, and the result names every failed server.
#include <gtest/gtest.h>

#include <algorithm>

#include "aggregator/aggregator.h"
#include "checker/checker.h"
#include "pfs/server.h"
#include "testing/fixtures.h"

namespace faultyrank {
namespace {

TEST(DegradedPipelineTest, StrictModeNamesEveryFailedServer) {
  LustreCluster cluster = testing::make_populated_cluster(150, 31, 4);
  OpFaultConfig fault_config;
  fault_config.crash_after_reads["oss0"] = 4;
  fault_config.crash_after_reads["oss2"] = 9;
  OpFaultSchedule faults(fault_config);

  CheckerConfig config;
  config.faults = &faults;
  const CheckerResult result = run_checker(cluster, config);
  // Both crashes are reported, in slot order — the first failure does
  // not discard the second server's outcome.
  ASSERT_EQ(result.failed_servers.size(), 2u);
  EXPECT_EQ(result.failed_servers[0], "oss0");
  EXPECT_EQ(result.failed_servers[1], "oss2");
  EXPECT_DOUBLE_EQ(result.coverage.coverage, 3.0 / 5.0);
  ASSERT_EQ(result.coverage.lost_sequences.size(), 2u);
  EXPECT_EQ(result.coverage.lost_sequences[0], cluster.osts()[0].fids.seq());
  EXPECT_EQ(result.coverage.lost_sequences[1], cluster.osts()[2].fids.seq());
}

TEST(DegradedPipelineTest, CrashedServerDegradesCoverageInsteadOfAborting) {
  LustreCluster cluster = testing::make_populated_cluster(150, 32, 4);

  // Baseline: full coverage.
  const CheckerResult full = run_checker(cluster);
  EXPECT_EQ(full.coverage.coverage, 1.0);
  EXPECT_TRUE(full.coverage.complete());
  EXPECT_TRUE(full.failed_servers.empty());

  OpFaultConfig fault_config;
  fault_config.crash_after_reads["oss1"] = 6;
  OpFaultSchedule faults(fault_config);
  CheckerConfig config;
  config.faults = &faults;

  const CheckerResult degraded = run_checker(cluster, config);
  // 1 MDT + 4 OSTs, one lost: 4/5 coverage.
  EXPECT_DOUBLE_EQ(degraded.coverage.coverage, 4.0 / 5.0);
  ASSERT_EQ(degraded.failed_servers.size(), 1u);
  EXPECT_EQ(degraded.failed_servers[0], "oss1");

  // The lost FID space is exactly oss1's sequence.
  ASSERT_EQ(degraded.coverage.lost_sequences.size(), 1u);
  EXPECT_EQ(degraded.coverage.lost_sequences[0],
            cluster.osts()[1].fids.seq());

  // The unified graph is built from the survivors only. Lost objects
  // that surviving metadata still references remain visible as phantom
  // (unscanned) vertices, but every edge the crashed OST would have
  // contributed — its ObjParent back-pointers — is gone.
  const std::uint64_t lost_edges =
      scan_ost(cluster.osts()[1]).graph.edges.size();
  EXPECT_GT(lost_edges, 0u);
  EXPECT_EQ(degraded.edges + lost_edges, full.edges);
  EXPECT_LE(degraded.vertices, full.vertices);
}

TEST(DegradedPipelineTest, QuarantinedInodesFlowIntoCoverage) {
  LustreCluster cluster = testing::make_populated_cluster(150, 33, 4);
  OpFaultConfig fault_config;
  fault_config.transient_eio_rate = 0.2;
  fault_config.max_fault_attempts = 2;
  OpFaultSchedule faults(fault_config);
  RetryPolicy retry;
  retry.max_attempts = 1;  // exhaust immediately → quarantine

  ClusterScan scan = scan_cluster(cluster, nullptr, DiskModel::ssd(),
                                  DiskModel::hdd(), &faults, retry);
  const AggregationResult result = aggregate(scan.results);
  // No server failed outright, so server coverage stays 1.0 ...
  EXPECT_EQ(result.coverage.coverage, 1.0);
  EXPECT_TRUE(std::none_of(
      scan.results.begin(), scan.results.end(), [](const ScanResult& s) {
        return s.status == ScanStatus::kFailed;
      }));
  // ... but the quarantined inodes are recorded, so the coverage is not
  // "complete" and the detector can treat those FIDs as unobservable.
  EXPECT_FALSE(result.coverage.quarantined.empty());
  EXPECT_FALSE(result.coverage.complete());
  for (const Fid& fid : result.coverage.quarantined) {
    EXPECT_TRUE(result.coverage.fid_lost(fid));
  }
}

TEST(DegradedPipelineTest, LegacyEntryPointStaysStrictAndFaultFree) {
  // A check without faults covers every server and loses nothing.
  LustreCluster cluster = testing::make_populated_cluster(150, 34, 4);
  const CheckerResult result = run_checker(cluster);
  EXPECT_TRUE(result.failed_servers.empty());
  EXPECT_EQ(result.coverage.coverage, 1.0);
  EXPECT_TRUE(result.coverage.complete());
  EXPECT_EQ(result.inodes_scanned,
            cluster.mdt_inodes_used() + cluster.total_ost_objects());
}

}  // namespace
}  // namespace faultyrank
