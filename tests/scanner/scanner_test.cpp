#include "scanner/scanner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "aggregator/aggregator.h"
#include "faults/op_faults.h"
#include "testing/fixtures.h"

namespace faultyrank {
namespace {

TEST(ScannerTest, MdtScanExtractsNamespaceAndLayoutEdges) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, -1});
  const Fid dir = cluster.mkdir(cluster.root(), "d");
  const Fid file = cluster.create_file(dir, "f", 2 * 64 * 1024);

  const ScanResult result = scan_mdt(cluster.mdt());
  EXPECT_TRUE(result.local_to_mds);
  EXPECT_EQ(result.inodes_scanned, 3u);  // root, d, f
  EXPECT_EQ(result.directories_visited, 2u);
  EXPECT_EQ(result.graph.vertices.size(), 3u);

  const auto has_edge = [&](Fid src, Fid dst, EdgeKind kind) {
    return std::any_of(result.graph.edges.begin(), result.graph.edges.end(),
                       [&](const FidEdge& e) {
                         return e.src == src && e.dst == dst && e.kind == kind;
                       });
  };
  EXPECT_TRUE(has_edge(cluster.root(), dir, EdgeKind::kDirent));
  EXPECT_TRUE(has_edge(dir, cluster.root(), EdgeKind::kLinkEa));
  EXPECT_TRUE(has_edge(dir, file, EdgeKind::kDirent));
  EXPECT_TRUE(has_edge(file, dir, EdgeKind::kLinkEa));
  // Two LOVEA edges to the stripe objects.
  const Inode* inode = cluster.stat(file);
  for (const auto& slot : inode->lov_ea->stripes) {
    EXPECT_TRUE(has_edge(file, slot.stripe, EdgeKind::kLovEa));
  }
}

TEST(ScannerTest, OstScanExtractsObjectPointbacks) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, -1});
  const Fid file = cluster.create_file(cluster.root(), "f", 2 * 64 * 1024);
  std::uint64_t vertices = 0;
  std::uint64_t pointbacks = 0;
  for (const auto& ost : cluster.osts()) {
    const ScanResult result = scan_ost(ost);
    EXPECT_FALSE(result.local_to_mds);
    vertices += result.graph.vertices.size();
    for (const auto& e : result.graph.edges) {
      EXPECT_EQ(e.kind, EdgeKind::kObjParent);
      EXPECT_EQ(e.dst, file);
      ++pointbacks;
    }
  }
  EXPECT_EQ(vertices, 2u);
  EXPECT_EQ(pointbacks, 2u);
}

TEST(ScannerTest, HealthyClusterScansToFullyPairedGraph) {
  LustreCluster cluster = testing::make_populated_cluster(150, 3);
  ClusterScan scan = scan_cluster(cluster);
  const AggregationResult agg = aggregate(scan.results);
  EXPECT_TRUE(agg.graph.unpaired_edges().empty());
  // Every scanned vertex is real (no phantoms in a healthy FS).
  for (Gid v = 0; v < agg.graph.vertex_count(); ++v) {
    EXPECT_TRUE(agg.graph.vertices().is_scanned(v));
  }
}

TEST(ScannerTest, ScanSeesRawCorruptionNotOiState) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, 1});
  const Fid file = cluster.create_file(cluster.root(), "f", 1000);
  // Corrupt the file's LMA raw; the OI still maps the old fid.
  Inode* inode = cluster.mdt().image.find_by_fid(file);
  inode->lma_fid = Fid{0xbad, 1, 0};
  const ScanResult result = scan_mdt(cluster.mdt());
  const bool saw_corrupt = std::any_of(
      result.graph.vertices.begin(), result.graph.vertices.end(),
      [](const VertexRecord& v) { return v.fid == Fid{0xbad, 1, 0}; });
  const bool saw_original = std::any_of(
      result.graph.vertices.begin(), result.graph.vertices.end(),
      [&](const VertexRecord& v) { return v.fid == file; });
  EXPECT_TRUE(saw_corrupt);
  EXPECT_FALSE(saw_original);
}

TEST(ScannerTest, ClusterScanParallelMatchesSerial) {
  LustreCluster cluster = testing::make_populated_cluster(120, 9);
  const ClusterScan serial = scan_cluster(cluster, nullptr);
  ThreadPool pool(4);
  const ClusterScan parallel = scan_cluster(cluster, &pool);
  ASSERT_EQ(serial.results.size(), parallel.results.size());
  EXPECT_EQ(serial.inodes_scanned, parallel.inodes_scanned);
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].graph.server,
              parallel.results[i].graph.server);
    EXPECT_EQ(serial.results[i].graph.edges.size(),
              parallel.results[i].graph.edges.size());
    EXPECT_EQ(serial.results[i].graph.vertices.size(),
              parallel.results[i].graph.vertices.size());
  }
}

TEST(ScannerTest, SimTimeReflectsDiskModel) {
  LustreCluster cluster = testing::make_populated_cluster(100, 5);
  const DiskModel slow{.seek_seconds = 0.1, .bandwidth_bytes_per_s = 1e6};
  const DiskModel fast = DiskModel::ssd();
  const ScanResult slow_scan = scan_mdt(cluster.mdt(), slow);
  const ScanResult fast_scan = scan_mdt(cluster.mdt(), fast);
  EXPECT_GT(slow_scan.sim_seconds, fast_scan.sim_seconds);
  // Identical extraction regardless of the device model.
  EXPECT_EQ(slow_scan.graph.edges.size(), fast_scan.graph.edges.size());
}

TEST(ScannerTest, ClusterSimTimeIsMaxOverServers) {
  LustreCluster cluster = testing::make_populated_cluster(100, 6);
  const ClusterScan scan = scan_cluster(cluster);
  double max_server = 0.0;
  for (const auto& result : scan.results) {
    max_server = std::max(max_server, result.sim_seconds);
  }
  EXPECT_DOUBLE_EQ(scan.sim_seconds, max_server);
}

// A scan sizes its partial graph before the walk (scanner.h), so on a
// healthy cluster both arrays end exactly full: neither ever grew. One
// MDT, then a 2-MDT DNE cluster whose second MDT holds directories too.
TEST(ScannerTest, HealthyScanArraysAreSizedExactly) {
  for (const std::size_t mdts : {std::size_t{1}, std::size_t{2}}) {
    LustreCluster cluster(4, StripePolicy{64 * 1024, -1}, mdts);
    NamespaceConfig config;
    config.file_count = 300;
    config.seed = 12;
    populate_namespace(cluster, config);
    const auto expect_exact = [&](const ScanResult& scan) {
      EXPECT_EQ(scan.status, ScanStatus::kComplete) << scan.graph.server;
      EXPECT_GT(scan.graph.edges.size(), 0u) << scan.graph.server;
      EXPECT_EQ(scan.graph.vertices.capacity(), scan.graph.vertices.size())
          << scan.graph.server;
      EXPECT_EQ(scan.graph.edges.capacity(), scan.graph.edges.size())
          << scan.graph.server;
    };
    for (std::size_t m = 0; m < cluster.mdt_count(); ++m) {
      expect_exact(scan_mdt(cluster.mdt_server(m)));
    }
    for (const OstServer& ost : cluster.osts()) expect_exact(scan_ost(ost));
  }
}

// Quarantined inodes leave the arrays short of their capacity, never
// past it: each array's capacity is the size a healthy scan of the same
// server fills, so neither grew. The sizing pass is not a modelled
// read: every server's sim time, retry count and quarantine count equal
// those recorded with the scanner that grew its arrays as it went (same
// cluster, same schedule). Regenerating: a change to the disk or fault model fails
// here and prints the table it computed; paste it over kFaultedScans.
struct FaultedScan {
  const char* server;
  double sim_seconds;
  std::uint64_t retries;
  std::size_t quarantined;
};

// clang-format off
const FaultedScan kFaultedScans[] = {
    {"mds0", 0x1.2bd21bba4f88ap-1, 25, 15},
    {"oss0", 0x1.59e9320ea1fdbp-1, 24, 17},
    {"oss1", 0x1.aace1c0ef4288p-2, 23, 14},
    {"oss2", 0x1.a221875cbd579p-1, 23, 19},
    {"oss3", 0x1.782b1aeac9d03p-1, 25, 17},
};
// clang-format on

TEST(ScannerTest, QuarantineKeepsArraysWithinTheirSizeAndSimTimeUnchanged) {
  const LustreCluster cluster = testing::make_populated_cluster(150, 33, 4);
  OpFaultConfig fault_config;
  fault_config.transient_eio_rate = 0.2;
  fault_config.latency_spike_rate = 0.05;
  fault_config.max_fault_attempts = 3;
  OpFaultSchedule faults(fault_config);
  RetryPolicy retry;
  retry.max_attempts = 2;  // faults lasting 3 attempts quarantine
  const ClusterScan scan =
      scan_cluster(cluster, nullptr, DiskModel::ssd(), DiskModel::hdd(),
                   &faults, retry);

  const ClusterScan healthy = scan_cluster(cluster);
  ASSERT_EQ(healthy.results.size(), scan.results.size());

  std::string table;
  std::size_t quarantined = 0;
  for (std::size_t i = 0; i < scan.results.size(); ++i) {
    const ScanResult& result = scan.results[i];
    const PartialGraph& whole = healthy.results[i].graph;
    EXPECT_EQ(result.status == ScanStatus::kDegraded,
              !result.quarantined.empty());
    EXPECT_EQ(result.graph.server, whole.server);
    EXPECT_EQ(result.graph.vertices.capacity(), whole.vertices.size())
        << result.graph.server;
    EXPECT_EQ(result.graph.edges.capacity(), whole.edges.size())
        << result.graph.server;
    quarantined += result.quarantined.size();
    char line[128];
    std::snprintf(line, sizeof line, "    {\"%s\", %a, %" PRIu64 ", %zu},\n",
                  result.graph.server.c_str(), result.sim_seconds,
                  result.retries, result.quarantined.size());
    table += line;
  }
  EXPECT_GT(quarantined, 0u);
  ASSERT_EQ(scan.results.size(), std::size(kFaultedScans)) << table;
  for (std::size_t i = 0; i < scan.results.size(); ++i) {
    const ScanResult& result = scan.results[i];
    EXPECT_EQ(result.graph.server, kFaultedScans[i].server) << table;
    EXPECT_EQ(result.sim_seconds, kFaultedScans[i].sim_seconds) << table;
    EXPECT_EQ(result.retries, kFaultedScans[i].retries) << table;
    EXPECT_EQ(result.quarantined.size(), kFaultedScans[i].quarantined)
        << table;
  }
}

}  // namespace
}  // namespace faultyrank
