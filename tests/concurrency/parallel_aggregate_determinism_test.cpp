// The parallel aggregation pipeline must be bit-identical to the serial
// reference path: same GIDs, same CSR, same pairing flags, same
// unpaired-edge ordering — for any thread count. Interning is serial,
// so a pooled aggregate differs from a serial one only in the parallel
// pairing (pairing flags, in-degree splits, unpaired-edge order). Both
// are also checked against a per-edge has_edge pairing oracle. A pooled
// Lustre check under a fault schedule and a pooled BeeGFS check with
// repairs must match the serial check too.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "aggregator/aggregator.h"
#include "checker/checker.h"
#include "common/thread_pool.h"
#include "faults/injector.h"
#include "graph/unified_graph.h"
#include "scanner/scanner.h"
#include "testing/fixtures.h"
#include "testing/graph_equal.h"
#include "workload/rmat.h"

namespace faultyrank {
namespace {

/// Checks the pairing outputs against the definition, edge by edge:
/// u→v is paired iff the graph holds some v→u. The in-degree split and
/// the unpaired list (in (src GID, slot) order) follow from the flags.
void expect_pairing_matches_oracle(const UnifiedGraph& g) {
  const Csr& fwd = g.forward();
  const std::size_t n = g.vertex_count();
  std::vector<std::uint32_t> in_paired(n, 0);
  std::vector<std::uint32_t> in_unpaired(n, 0);
  std::vector<UnpairedEdge> unpaired;
  for (Gid u = 0; u < n; ++u) {
    for (auto slot = fwd.edges_begin(u); slot < fwd.edges_end(u); ++slot) {
      const Gid v = fwd.target(slot);
      const bool is_paired = fwd.has_edge(v, u);
      ASSERT_EQ(g.paired(slot), is_paired) << "slot " << slot;
      if (is_paired) {
        ++in_paired[v];
      } else {
        ++in_unpaired[v];
        unpaired.push_back({u, v, fwd.kind(slot)});
      }
    }
  }
  for (Gid v = 0; v < n; ++v) {
    ASSERT_EQ(g.paired_in_degree(v), in_paired[v]) << "gid " << v;
    ASSERT_EQ(g.unpaired_in_degree(v), in_unpaired[v]) << "gid " << v;
  }
  ASSERT_EQ(g.unpaired_edges(), unpaired);
}

/// Partials engineered to hit every interning wrinkle: cross-partial
/// duplicate scans (double-reference), phantom endpoints, last-wins
/// kind upgrades, and edges seen before/after their vertices.
std::vector<PartialGraph> make_adversarial_partials() {
  std::vector<PartialGraph> partials(3);
  auto fid = [](std::uint64_t seq, std::uint32_t oid) {
    return Fid{seq, oid, 0};
  };
  for (std::uint32_t i = 0; i < 400; ++i) {
    PartialGraph& p = partials[i % 2];
    p.add_vertex(fid(1, i), i % 3 == 0 ? ObjectKind::kDirectory
                                       : ObjectKind::kFile);
    // Edges to scanned, later-scanned, and never-scanned (phantom) fids.
    p.add_edge(fid(1, i), fid(1, (i * 7 + 3) % 400), EdgeKind::kDirent);
    p.add_edge(fid(1, (i * 7 + 3) % 400), fid(1, i), EdgeKind::kLinkEa);
    if (i % 5 == 0) {
      p.add_edge(fid(1, i), fid(0xdead, i), EdgeKind::kLovEa);  // phantom
    }
  }
  // Double-reference: the same FID scanned on two servers, with a kind
  // upgrade on the second sighting.
  for (std::uint32_t i = 0; i < 50; ++i) {
    partials[2].add_vertex(fid(1, i * 4), ObjectKind::kStripeObject);
    partials[2].add_edge(fid(0xdead, i * 4), fid(1, i * 4),
                         EdgeKind::kObjParent);
  }
  return partials;
}

TEST(ParallelAggregateTest, RmatFinalizeMatchesSerialForAnyThreadCount) {
  const GeneratedGraph rmat = generate_rmat({.scale = 12, .avg_degree = 8});
  const UnifiedGraph serial =
      UnifiedGraph::from_edges(rmat.vertex_count, rmat.edges);
  ASSERT_FALSE(serial.unpaired_edges().empty());  // RMAT is mostly unpaired
  expect_pairing_matches_oracle(serial);
  for (const std::size_t threads : {2u, 3u, 7u}) {
    ThreadPool pool(threads);
    const UnifiedGraph parallel =
        UnifiedGraph::from_edges(rmat.vertex_count, rmat.edges, &pool);
    testing::expect_identical(serial, parallel);
  }
}

TEST(ParallelAggregateTest, MultigraphPairingMatchesOracleForAnyPool) {
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    const std::vector<GidEdge> edges =
        testing::make_random_multigraph(seed, 300, 3000);
    const UnifiedGraph serial = UnifiedGraph::from_edges(300, edges);
    expect_pairing_matches_oracle(serial);
    for (const std::size_t threads : {1u, 4u}) {
      ThreadPool pool(threads);
      const UnifiedGraph pooled = UnifiedGraph::from_edges(300, edges, &pool);
      expect_pairing_matches_oracle(pooled);
      testing::expect_identical(serial, pooled);
    }
  }
}

TEST(ParallelAggregateTest, AdversarialPartialsMatchSerial) {
  const std::vector<PartialGraph> partials = make_adversarial_partials();
  const UnifiedGraph serial = UnifiedGraph::aggregate(partials);
  expect_pairing_matches_oracle(serial);
  for (const std::size_t threads : {2u, 5u}) {
    ThreadPool pool(threads);
    const UnifiedGraph parallel = UnifiedGraph::aggregate(partials, &pool);
    testing::expect_identical(serial, parallel);
  }
}

TEST(ParallelAggregateTest, ClusterScanAggregateMatchesSerial) {
  LustreCluster cluster = testing::make_populated_cluster(200, 91);
  FaultInjector injector(cluster, 92);
  injector.inject_campaign(5);  // unpaired edges + phantoms in the graph
  ClusterScan scan = scan_cluster(cluster);
  std::vector<ScanResult> copy = scan.results;  // aggregate() consumes

  const AggregationResult serial = aggregate(scan.results);
  expect_pairing_matches_oracle(serial.graph);
  ThreadPool pool(4);
  const AggregationResult parallel = aggregate(copy, {}, &pool);
  testing::expect_identical(serial.graph, parallel.graph);
  EXPECT_EQ(serial.transferred_bytes, parallel.transferred_bytes);
  EXPECT_DOUBLE_EQ(serial.sim_transfer_seconds, parallel.sim_transfer_seconds);
  EXPECT_DOUBLE_EQ(serial.sim_pipeline_seconds, parallel.sim_pipeline_seconds);
}

TEST(ParallelAggregateTest, PipelinedSimTimeOverlapsTransfers) {
  LustreCluster cluster = testing::make_populated_cluster(150, 95);
  ClusterScan scan = scan_cluster(cluster);
  const AggregationResult agg = aggregate(scan.results);
  // Overlapped finish time is bounded by the barriered accounting and
  // can never beat the slowest scanner alone.
  EXPECT_LE(agg.sim_pipeline_seconds,
            scan.sim_seconds + agg.sim_transfer_seconds);
  EXPECT_GE(agg.sim_pipeline_seconds, scan.sim_seconds);
  EXPECT_GT(agg.sim_transfer_seconds, 0.0);
}

/// A pooled check must reproduce the serial one: ranks bit for bit and
/// findings field by field.
void expect_same_ranks_and_findings(const CheckerResult& got,
                                    const CheckerResult& want) {
  ASSERT_EQ(got.ranks.id_rank.size(), want.ranks.id_rank.size());
  EXPECT_EQ(got.ranks.iterations, want.ranks.iterations);
  for (std::size_t v = 0; v < want.ranks.id_rank.size(); ++v) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.ranks.id_rank[v]),
              std::bit_cast<std::uint64_t>(want.ranks.id_rank[v]))
        << "gid " << v;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.ranks.prop_rank[v]),
              std::bit_cast<std::uint64_t>(want.ranks.prop_rank[v]))
        << "gid " << v;
  }
  ASSERT_EQ(got.report.findings.size(), want.report.findings.size());
  for (std::size_t i = 0; i < want.report.findings.size(); ++i) {
    const Finding& w = want.report.findings[i];
    const Finding& g = got.report.findings[i];
    EXPECT_EQ(g.category, w.category) << i;
    EXPECT_EQ(g.culprit, w.culprit) << i;
    EXPECT_EQ(g.source, w.source) << i;
    EXPECT_EQ(g.target, w.target) << i;
    EXPECT_EQ(g.edge_kind, w.edge_kind) << i;
    EXPECT_EQ(g.convicted_object, w.convicted_object) << i;
    EXPECT_EQ(g.convicted_id_field, w.convicted_id_field) << i;
    EXPECT_EQ(g.repair, w.repair) << i;
    EXPECT_EQ(g.note, w.note) << i;
  }
}

// The pooled scan runs every server as a task of one TaskGroup. Under a
// fault schedule — one OST crashes mid-scan, transient EIO everywhere,
// some of it outlasting the retry budget — each pool, with a fresh
// schedule, must reproduce the serial check. The cluster is large
// enough (> kRankSerialGrain vertices) that the rank kernel splits too.
TEST(PooledFaultCheckTest, DegradedCheckMatchesSerialForAnyPool) {
  LustreCluster cluster = testing::make_populated_cluster(600, 98, 4);
  FaultInjector injector(cluster, 99);
  injector.inject_campaign(3);
  OpFaultConfig fault_config;
  fault_config.seed = 98;
  fault_config.transient_eio_rate = 0.1;
  fault_config.max_fault_attempts = 6;  // past RetryPolicy's 4 reads
  fault_config.crash_after_reads["oss1"] = 40;
  const auto check = [&](ThreadPool* pool) {
    OpFaultSchedule faults(fault_config);
    CheckerConfig config;
    config.pool = pool;
    config.faults = &faults;
    return run_checker(cluster, config);
  };

  const CheckerResult serial = check(nullptr);
  ASSERT_EQ(serial.failed_servers, std::vector<std::string>{"oss1"});
  ASSERT_EQ(serial.coverage.lost_sequences.size(), 1u);
  ASSERT_FALSE(serial.coverage.quarantined.empty());
  ASSERT_GT(serial.vertices, kRankSerialGrain);
  ASSERT_FALSE(serial.report.findings.empty());

  for (const std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ThreadPool pool(threads);
    const CheckerResult pooled = check(&pool);
    EXPECT_EQ(pooled.failed_servers, serial.failed_servers);
    EXPECT_EQ(pooled.coverage.coverage, serial.coverage.coverage);
    EXPECT_EQ(pooled.coverage.lost_sequences, serial.coverage.lost_sequences);
    EXPECT_EQ(pooled.coverage.quarantined, serial.coverage.quarantined);
    expect_same_ranks_and_findings(pooled, serial);
  }
}

// FRPG encoding, the merge and the rank kernel run on the pool; the
// cluster is large enough (> kRankSerialGrain vertices) that the
// kernel splits too. Faults on the meta server and on targets give
// repairs through both.
TEST(PooledBeeCheckTest, RepairsMatchSerialForAnyPool) {
  const auto damaged_cluster = [] {
    BeeCluster cluster = testing::make_populated_bee_cluster(97, 1200);
    const std::string dir = cluster.mkdir(cluster.root(), "victim");
    cluster.create_file(dir, "a", 1 << 20);
    cluster.create_file(dir, "b", 1 << 20);
    cluster.meta().dentries[dir].clear();
    const std::string file = cluster.create_file(cluster.root(), "x", 1 << 20);
    cluster.meta().find(file)->parent_entry_id.clear();
    for (BeeChunkFile& chunk : cluster.targets()[1].chunks) {
      if (chunk.in_use) {
        chunk.xattr_origin = "ffff-9999-bee";
        break;
      }
    }
    return cluster;
  };
  CheckerConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  BeeCluster serial_cluster = damaged_cluster();
  const CheckerResult serial = run_checker(serial_cluster, config);
  ASSERT_GT(serial.vertices, kRankSerialGrain);
  ASSERT_FALSE(serial.report.consistent());
  ASSERT_GT(serial.repairs_applied, 0u);

  for (const std::size_t threads : {1u, 3u}) {
    ThreadPool pool(threads);
    CheckerConfig pooled_config = config;
    pooled_config.pool = &pool;
    BeeCluster cluster = damaged_cluster();
    const CheckerResult pooled = run_checker(cluster, pooled_config);

    SCOPED_TRACE(std::to_string(threads) + " threads");
    expect_same_ranks_and_findings(pooled, serial);
    ASSERT_EQ(pooled.repair_outcomes.size(), serial.repair_outcomes.size());
    for (std::size_t i = 0; i < serial.repair_outcomes.size(); ++i) {
      EXPECT_EQ(pooled.repair_outcomes[i].action,
                serial.repair_outcomes[i].action) << i;
      EXPECT_EQ(pooled.repair_outcomes[i].applied,
                serial.repair_outcomes[i].applied) << i;
      EXPECT_EQ(pooled.repair_outcomes[i].detail,
                serial.repair_outcomes[i].detail) << i;
    }
    EXPECT_EQ(pooled.verified_consistent, serial.verified_consistent);
  }
}

}  // namespace
}  // namespace faultyrank
