// Checkpoint/resume: atomic persistence, hardened deserialization, and
// the headline guarantee — a run interrupted mid-scan and resumed from
// its checkpoint produces ranks bit-identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <limits>

#include "aggregator/aggregator.h"
#include "aggregator/checkpoint.h"
#include "common/thread_pool.h"
#include "core/faultyrank.h"
#include "pfs/changelog.h"
#include "pfs/persistence.h"
#include "testing/fixtures.h"

namespace faultyrank {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

ScanCheckpoint make_checkpoint(const LustreCluster& cluster) {
  ScanCheckpoint ckpt;
  ckpt.epoch = 0x5ca1ab1e;
  ckpt.labels = {"mds0", "oss0", "oss1"};
  ckpt.results.resize(3);
  ckpt.results[0] = scan_mdt(cluster.mdt());
  // Slot 1 (oss0) not yet scanned.
  ckpt.results[2] = scan_ost(cluster.osts()[1]);
  return ckpt;
}

TEST(CheckpointTest, SerializationRoundTripsEveryField) {
  const LustreCluster cluster = testing::make_populated_cluster(80, 41, 2);
  const ScanCheckpoint ckpt = make_checkpoint(cluster);

  const ScanCheckpoint loaded =
      deserialize_checkpoint(serialize_checkpoint(ckpt));
  EXPECT_EQ(loaded.epoch, ckpt.epoch);
  EXPECT_EQ(loaded.labels, ckpt.labels);
  ASSERT_EQ(loaded.results.size(), 3u);
  EXPECT_TRUE(loaded.results[0].has_value());
  EXPECT_FALSE(loaded.results[1].has_value());
  ASSERT_TRUE(loaded.results[2].has_value());

  const ScanResult& original = *ckpt.results[0];
  const ScanResult& restored = *loaded.results[0];
  EXPECT_EQ(restored.graph.serialize(), original.graph.serialize());
  EXPECT_EQ(restored.local_to_mds, original.local_to_mds);
  EXPECT_EQ(restored.sim_seconds, original.sim_seconds);
  EXPECT_EQ(restored.inodes_scanned, original.inodes_scanned);
  EXPECT_EQ(restored.directories_visited, original.directories_visited);
  EXPECT_EQ(restored.status, original.status);
  EXPECT_EQ(restored.read_attempts, original.read_attempts);
  EXPECT_EQ(restored.retries, original.retries);
  EXPECT_EQ(restored.quarantined, original.quarantined);
  EXPECT_EQ(restored.error, original.error);
}

TEST(CheckpointTest, SaveIsAtomicAndLeavesNoTempFile) {
  const LustreCluster cluster = testing::make_populated_cluster(80, 42, 2);
  const std::string path = temp_path("ckpt_atomic.frcp");
  std::filesystem::remove(path);

  save_checkpoint(make_checkpoint(cluster), path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const ScanCheckpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.labels.size(), 3u);
  std::filesystem::remove(path);
}

TEST(CheckpointTest, TruncatedCheckpointsAlwaysThrow) {
  const LustreCluster cluster = testing::make_populated_cluster(80, 43, 2);
  const std::vector<std::uint8_t> bytes =
      serialize_checkpoint(make_checkpoint(cluster));
  ASSERT_GT(bytes.size(), 32u);
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    const std::vector<std::uint8_t> prefix(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)deserialize_checkpoint(prefix), PersistenceError)
        << "prefix of " << cut << " bytes parsed";
  }
}

TEST(CheckpointResumeTest, MismatchedClusterIsRejected) {
  const LustreCluster small = testing::make_populated_cluster(60, 44, 2);
  const LustreCluster big = testing::make_populated_cluster(60, 44, 4);
  const std::string path = temp_path("ckpt_mismatch.frcp");
  std::filesystem::remove(path);

  OpFaultConfig fault_config;
  OpFaultSchedule faults(fault_config);
  PipelineConfig config;
  config.faults = &faults;
  config.checkpoint_path = path;
  (void)scan_and_aggregate(small, config);

  EXPECT_THROW((void)scan_and_aggregate(big, config), PersistenceError);
  std::filesystem::remove(path);
}

TEST(CheckpointResumeTest, ResumedRunReproducesRanksBitForBit) {
  const LustreCluster cluster = testing::make_populated_cluster(150, 45, 4);
  const std::string path = temp_path("ckpt_resume.frcp");
  std::filesystem::remove(path);

  OpFaultConfig fault_config;
  fault_config.seed = 99;
  fault_config.transient_eio_rate = 0.1;
  fault_config.latency_spike_rate = 0.05;

  // Reference: one uninterrupted run.
  PipelineResult reference;
  {
    OpFaultSchedule faults(fault_config);
    PipelineConfig config;
    config.faults = &faults;
    reference = scan_and_aggregate(cluster, config);
  }

  // Interrupted run: checkpoint after every scan, die after two.
  {
    OpFaultSchedule faults(fault_config);
    PipelineConfig config;
    config.faults = &faults;
    config.checkpoint_path = path;
    config.interrupt_after_servers = 2;
    EXPECT_THROW((void)scan_and_aggregate(cluster, config),
                 PipelineInterrupted);
  }
  ASSERT_TRUE(std::filesystem::exists(path));

  // Resumed run: fresh process state (new schedule), same checkpoint.
  // Runs on a pool to exercise the pooled scan of the remaining slots.
  PipelineResult resumed;
  {
    OpFaultSchedule faults(fault_config);
    ThreadPool pool(4);
    PipelineConfig config;
    config.pool = &pool;
    config.faults = &faults;
    config.checkpoint_path = path;
    resumed = scan_and_aggregate(cluster, config);
  }
  EXPECT_EQ(resumed.servers_resumed, 2u);
  EXPECT_TRUE(resumed.failed_servers.empty());

  // The resumed graph and virtual-time numbers match the uninterrupted
  // run exactly...
  ASSERT_EQ(resumed.agg.graph.vertex_count(),
            reference.agg.graph.vertex_count());
  ASSERT_EQ(resumed.agg.graph.edge_count(), reference.agg.graph.edge_count());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(resumed.scan.sim_seconds),
            std::bit_cast<std::uint64_t>(reference.scan.sim_seconds));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(resumed.agg.sim_pipeline_seconds),
            std::bit_cast<std::uint64_t>(reference.agg.sim_pipeline_seconds));

  // ...and so do the ranks, bit for bit.
  const FaultyRankResult ranks_ref = run_faultyrank(reference.agg.graph);
  const FaultyRankResult ranks_res = run_faultyrank(resumed.agg.graph);
  ASSERT_EQ(ranks_res.id_rank.size(), ranks_ref.id_rank.size());
  for (std::size_t v = 0; v < ranks_ref.id_rank.size(); ++v) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ranks_res.id_rank[v]),
              std::bit_cast<std::uint64_t>(ranks_ref.id_rank[v]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ranks_res.prop_rank[v]),
              std::bit_cast<std::uint64_t>(ranks_ref.prop_rank[v]));
  }
  std::filesystem::remove(path);
}

TEST(CheckpointResumeTest, StaleCheckpointFromMutatedClusterIsDiscarded) {
  // Regression for the checkpoint × mutation interleaving: a checkpoint
  // written before the cluster changed must NOT be resumed — prefilling
  // its scans would merge two points in time into one graph and every
  // edge into the stale region would read as a phantom inconsistency.
  // The epoch (here: the changelog cursor at scan start) is the
  // staleness fingerprint.
  LustreCluster cluster = testing::make_populated_cluster(120, 46, 4);
  ChangeLog log;
  cluster.attach_changelog(&log);
  const std::string path = temp_path("ckpt_stale_epoch.frcp");
  std::filesystem::remove(path);

  OpFaultConfig fault_config;
  fault_config.seed = 46;
  {
    OpFaultSchedule faults(fault_config);
    PipelineConfig config;
    config.faults = &faults;
    config.checkpoint_path = path;
    config.checkpoint_epoch = log.next_index();
    config.interrupt_after_servers = 2;
    EXPECT_THROW((void)scan_and_aggregate(cluster, config),
                 PipelineInterrupted);
  }
  ASSERT_TRUE(std::filesystem::exists(path));

  // The filesystem moves on while the checker is down.
  cluster.create_file(cluster.root(), "while_you_were_out", 128 * 1024);

  PipelineResult resumed;
  {
    OpFaultSchedule faults(fault_config);
    PipelineConfig config;
    config.faults = &faults;
    config.checkpoint_path = path;
    config.checkpoint_epoch = log.next_index();  // epoch moved on too
    resumed = scan_and_aggregate(cluster, config);
  }
  EXPECT_TRUE(resumed.checkpoint_discarded);
  EXPECT_EQ(resumed.servers_resumed, 0u);

  // The full rescan matches a from-scratch run of the mutated cluster.
  const PipelineResult fresh = scan_and_aggregate(cluster, PipelineConfig{});
  EXPECT_EQ(resumed.agg.graph.vertex_count(),
            fresh.agg.graph.vertex_count());
  EXPECT_EQ(resumed.agg.graph.edge_count(), fresh.agg.graph.edge_count());
  EXPECT_TRUE(resumed.agg.coverage.complete());
  std::filesystem::remove(path);
}

TEST(CheckpointResumeTest, SameEpochResumeIsNotDiscarded) {
  LustreCluster cluster = testing::make_populated_cluster(100, 47, 4);
  ChangeLog log;
  cluster.attach_changelog(&log);
  const std::string path = temp_path("ckpt_same_epoch.frcp");
  std::filesystem::remove(path);

  OpFaultConfig fault_config;
  OpFaultSchedule faults(fault_config);
  PipelineConfig config;
  config.faults = &faults;
  config.checkpoint_path = path;
  config.checkpoint_epoch = log.next_index();
  config.interrupt_after_servers = 2;
  EXPECT_THROW((void)scan_and_aggregate(cluster, config),
               PipelineInterrupted);

  config.interrupt_after_servers = std::numeric_limits<std::size_t>::max();
  const PipelineResult resumed = scan_and_aggregate(cluster, config);
  EXPECT_FALSE(resumed.checkpoint_discarded);
  EXPECT_EQ(resumed.servers_resumed, 2u);
  std::filesystem::remove(path);
}

TEST(CheckpointResumeTest, ResumeWithLatchedCrashMatchesFreshFaultyRun) {
  // Regression for the checkpoint × fault-schedule interleaving: a run
  // that is interrupted, then resumed *in-process* (same schedule
  // object, so a crashed server's latch is still set) must agree with
  // an uninterrupted run under the same fault config on everything
  // that feeds detection — ranks bit for bit AND the CoverageInfo
  // (lost sequences, quarantined inodes, coverage fraction).
  const LustreCluster cluster = testing::make_populated_cluster(150, 48, 4);
  const std::string path = temp_path("ckpt_crash_resume.frcp");
  std::filesystem::remove(path);

  OpFaultConfig fault_config;
  fault_config.seed = 48;
  fault_config.transient_eio_rate = 0.08;
  fault_config.crash_after_reads["oss2"] = 20;

  PipelineResult reference;
  {
    OpFaultSchedule faults(fault_config);
    PipelineConfig config;
    config.faults = &faults;
    reference = scan_and_aggregate(cluster, config);
  }
  ASSERT_EQ(reference.failed_servers,
            std::vector<std::string>{"oss2"});

  PipelineResult resumed;
  {
    OpFaultSchedule faults(fault_config);  // one schedule, both runs
    PipelineConfig config;
    config.faults = &faults;
    config.checkpoint_path = path;
    config.interrupt_after_servers = 2;
    EXPECT_THROW((void)scan_and_aggregate(cluster, config),
                 PipelineInterrupted);
    config.interrupt_after_servers = std::numeric_limits<std::size_t>::max();
    resumed = scan_and_aggregate(cluster, config);
  }
  EXPECT_EQ(resumed.failed_servers, reference.failed_servers);
  EXPECT_EQ(resumed.agg.coverage.coverage, reference.agg.coverage.coverage);
  EXPECT_EQ(resumed.agg.coverage.lost_sequences,
            reference.agg.coverage.lost_sequences);
  EXPECT_EQ(resumed.agg.coverage.quarantined,
            reference.agg.coverage.quarantined);
  ASSERT_EQ(resumed.agg.graph.vertex_count(),
            reference.agg.graph.vertex_count());
  ASSERT_EQ(resumed.agg.graph.edge_count(), reference.agg.graph.edge_count());

  const FaultyRankResult ranks_ref = run_faultyrank(reference.agg.graph);
  const FaultyRankResult ranks_res = run_faultyrank(resumed.agg.graph);
  ASSERT_EQ(ranks_res.id_rank.size(), ranks_ref.id_rank.size());
  for (std::size_t v = 0; v < ranks_ref.id_rank.size(); ++v) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ranks_res.id_rank[v]),
              std::bit_cast<std::uint64_t>(ranks_ref.id_rank[v]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ranks_res.prop_rank[v]),
              std::bit_cast<std::uint64_t>(ranks_ref.prop_rank[v]));
  }
  std::filesystem::remove(path);
}

TEST(OpFaultsTest, ReviveClearsTheCrashLatch) {
  // revive() models the operator bringing a dead server back: the latch
  // clears, the crash point is consumed, and a rescan completes.
  OpFaultConfig config;
  config.crash_after_reads["oss0"] = 2;
  OpFaultSchedule faults(config);
  ServerFaultSchedule& server = faults.server("oss0");

  server.begin_scan();
  EXPECT_NO_THROW(server.on_read());
  EXPECT_NO_THROW(server.on_read());
  EXPECT_THROW(server.on_read(), ServerCrashError);
  EXPECT_TRUE(server.down());

  // A rescan without revive stays dead (the latch survives begin_scan).
  server.begin_scan();
  EXPECT_THROW(server.on_read(), ServerCrashError);

  server.revive();
  EXPECT_FALSE(server.down());
  server.begin_scan();
  for (int i = 0; i < 10; ++i) EXPECT_NO_THROW(server.on_read());
}

}  // namespace
}  // namespace faultyrank
