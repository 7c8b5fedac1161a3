// Generality (paper §VI): the unchanged FaultyRank core — rank kernel,
// detector, categories, repair planning — operating on the BeeGFS
// substrate through its own scanner and repair executor, in the same
// run_checker pass and aggregate() merge as Lustre.
#include "checker/checker.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "beegfs/bee_scanner.h"
#include "testing/fixtures.h"

namespace faultyrank {
namespace {

BeeCluster make_cluster(std::uint64_t seed) {
  return testing::make_populated_bee_cluster(seed);
}

UnifiedGraph scan_to_graph(const BeeCluster& cluster) {
  ClusterScan scan = scan_bee_cluster(cluster);
  return aggregate(scan.results).graph;
}

TEST(BeeScannerTest, HealthyClusterScansFullyPaired) {
  const BeeCluster cluster = make_cluster(81);
  const UnifiedGraph graph = scan_to_graph(cluster);
  EXPECT_GT(graph.vertex_count(), 0u);
  EXPECT_TRUE(graph.unpaired_edges().empty());
}

TEST(BeeScannerTest, VertexCountMatchesEntitiesPlusChunks) {
  const BeeCluster cluster = make_cluster(82);
  const UnifiedGraph graph = scan_to_graph(cluster);
  EXPECT_EQ(graph.vertex_count(),
            cluster.meta_inodes_used() + cluster.total_chunks());
}

TEST(BeeScannerTest, TargetPartialsCrossTheWireAsFrpg) {
  const BeeCluster cluster = make_cluster(89);
  ClusterScan scan = scan_bee_cluster(cluster);
  ASSERT_EQ(scan.results.size(), 1 + cluster.targets().size());
  EXPECT_TRUE(scan.results[0].local_to_mds);
  std::uint64_t frpg_bytes = 0;
  for (std::size_t i = 1; i < scan.results.size(); ++i) {
    EXPECT_FALSE(scan.results[i].local_to_mds);
    frpg_bytes += scan.results[i].graph.serialize().size();
  }
  EXPECT_GT(frpg_bytes, 0u);
  EXPECT_EQ(aggregate(scan.results).transferred_bytes, frpg_bytes);
}

TEST(BeeCheckerTest, HealthyClusterChecksConsistent) {
  BeeCluster cluster = make_cluster(83);
  const CheckerResult result = run_checker(cluster);
  EXPECT_TRUE(result.report.consistent());
  EXPECT_EQ(result.unpaired_edges, 0u);
}

TEST(BeeCheckerTest, WipedDentriesDetectedAndRepaired) {
  // The S3 analogue: a directory's dentry files vanish.
  BeeCluster cluster = make_cluster(84);
  const std::string dir = cluster.mkdir(cluster.root(), "victim");
  const std::string f1 = cluster.create_file(dir, "a", 1 << 20);
  const std::string f2 = cluster.create_file(dir, "b", 1 << 20);
  cluster.meta().dentries[dir].clear();

  CheckerConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  const CheckerResult result = run_checker(cluster, config);
  EXPECT_FALSE(result.report.consistent());
  EXPECT_TRUE(result.verified_consistent);
  EXPECT_EQ(cluster.meta().dentries[dir].size(), 2u);
  EXPECT_EQ(cluster.meta().dentries[dir]["a"], f1);
  EXPECT_EQ(cluster.meta().dentries[dir]["b"], f2);
}

TEST(BeeCheckerTest, CorruptedOriginXattrDetectedAndRepaired) {
  // The S7 analogue: a chunk's origin xattr goes bogus.
  BeeCluster cluster = make_cluster(85);
  const std::string file = cluster.create_file(cluster.root(), "x", 1 << 20);
  const std::uint32_t target = cluster.meta().find(file)->pattern->targets[0];
  for (BeeChunkFile& chunk : cluster.targets()[target].chunks) {
    if (chunk.in_use && chunk.name == file) {
      chunk.xattr_origin = "ffff-9999-bee";
      break;
    }
  }

  CheckerConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  const CheckerResult result = run_checker(cluster, config);
  EXPECT_FALSE(result.report.consistent());
  EXPECT_TRUE(result.verified_consistent);
  for (const BeeChunkFile& chunk : cluster.targets()[target].chunks) {
    if (chunk.in_use && chunk.name == file) {
      EXPECT_EQ(chunk.xattr_origin, file);
    }
  }
}

TEST(BeeCheckerTest, RenamedChunkFileDetectedAndReidentified) {
  // The S2 analogue: a chunk file is renamed — its identity changes
  // while its origin xattr still points home.
  BeeCluster cluster = make_cluster(86);
  const std::string file = cluster.create_file(cluster.root(), "y", 1 << 20);
  const std::uint32_t target = cluster.meta().find(file)->pattern->targets[0];
  for (BeeChunkFile& chunk : cluster.targets()[target].chunks) {
    if (chunk.in_use && chunk.name == file) {
      chunk.name = entry_id_from_fid(Fid{kBeeMetaSeq, 0x7fffffff, 0});
      break;
    }
  }

  CheckerConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  const CheckerResult result = run_checker(cluster, config);
  EXPECT_FALSE(result.report.consistent());
  EXPECT_TRUE(result.verified_consistent);
  bool renamed_back = false;
  for (const BeeChunkFile& chunk : cluster.targets()[target].chunks) {
    if (chunk.in_use && chunk.name == file) renamed_back = true;
  }
  EXPECT_TRUE(renamed_back);
}

TEST(BeeCheckerTest, ChunkRenamedToANonEntryIdIsRenamedBack) {
  // A chunk file renamed to a name that is not an entry id scans under
  // its quarantine identity. The overwrite-id repair must still find it
  // on its target and rename it back to its owner's entry id.
  BeeCluster cluster = make_cluster(86);
  std::size_t target = 0;
  std::size_t slot = 0;
  while (!cluster.targets()[target].chunks[slot].in_use) {
    if (++slot == cluster.targets()[target].chunks.size()) {
      slot = 0;
      ++target;
    }
  }
  BeeChunkFile& chunk = cluster.targets()[target].chunks[slot];
  const std::string owner = chunk.name;
  chunk.name = "garbage-name";

  CheckerConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  const CheckerResult result = run_checker(cluster, config);
  EXPECT_FALSE(result.report.consistent());
  EXPECT_EQ(result.repairs_applied, 1u);
  for (const RepairOutcome& outcome : result.repair_outcomes) {
    if (outcome.applied) {
      EXPECT_EQ(outcome.detail, "chunk file renamed");
    }
  }
  EXPECT_TRUE(result.verified_consistent);
  EXPECT_EQ(cluster.targets()[target].chunks[slot].name, owner);
}

TEST(BeeCheckerTest, MissingParentXattrRepairedFromDentry) {
  BeeCluster cluster = make_cluster(87);
  const std::string dir = cluster.mkdir(cluster.root(), "pdir");
  const std::string file = cluster.create_file(dir, "child", 1 << 20);
  cluster.meta().find(file)->parent_entry_id.clear();

  CheckerConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  const CheckerResult result = run_checker(cluster, config);
  EXPECT_TRUE(result.verified_consistent);
  EXPECT_EQ(cluster.meta().find(file)->parent_entry_id, dir);
}

TEST(BeeCheckerTest, RepairsAreIdempotent) {
  BeeCluster cluster = make_cluster(88);
  const std::string file = cluster.create_file(cluster.root(), "z", 1 << 20);
  cluster.meta().find(file)->parent_entry_id = "dead-beef-bee";

  CheckerConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  const CheckerResult first = run_checker(cluster, config);
  EXPECT_TRUE(first.verified_consistent);
  const CheckerResult second = run_checker(cluster, config);
  EXPECT_TRUE(second.report.consistent());
  EXPECT_EQ(second.repairs_applied, 0u);
}

TEST(BeeCheckerTest, CountsEveryEntryAndChunkAndTimesTheScan) {
  BeeCluster cluster = make_cluster(90);
  const CheckerResult result = run_checker(cluster);
  EXPECT_EQ(result.inodes_scanned,
            cluster.meta_inodes_used() + cluster.total_chunks());
  EXPECT_EQ(result.vertices,
            cluster.meta_inodes_used() + cluster.total_chunks());
  EXPECT_EQ(result.timings.t_scan_sim, scan_bee_cluster(cluster).sim_seconds);
  EXPECT_GT(result.timings.t_scan_sim, 0.0);
}

TEST(BeeCheckerTest, RejectsLustreOnlySettingsBeforeScanning) {
  BeeCluster cluster = make_cluster(91);
  const std::string dir = cluster.mkdir(cluster.root(), "victim");
  cluster.create_file(dir, "a", 1 << 20);
  cluster.meta().dentries[dir].clear();

  const auto rejection = [&cluster](const CheckerConfig& config) {
    try {
      (void)run_checker(cluster, config);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("no std::invalid_argument");
  };
  OpFaultSchedule faults(OpFaultConfig{});
  CheckerConfig with_faults;
  with_faults.apply_repairs = true;
  with_faults.faults = &faults;
  EXPECT_NE(rejection(with_faults).find("faults"), std::string::npos);
  CheckerConfig with_undo;
  with_undo.apply_repairs = true;
  with_undo.capture_undo = true;
  EXPECT_NE(rejection(with_undo).find("capture_undo"), std::string::npos);

  // Nothing was repaired: the wiped dentries are still gone.
  EXPECT_TRUE(cluster.meta().dentries[dir].empty());
  EXPECT_FALSE(run_checker(cluster).report.consistent());
}

}  // namespace
}  // namespace faultyrank
