#include "online/online_checker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "aggregator/aggregator.h"
#include "checker/checker.h"
#include "checker/repair_executor.h"
#include "faults/injector.h"
#include "scanner/scanner.h"
#include "testing/fixtures.h"

namespace faultyrank {
namespace {

TEST(OnlineCheckerTest, BootstrapMatchesOfflineScan) {
  LustreCluster cluster = testing::make_populated_cluster(150, 61);
  ChangeLog log;
  cluster.attach_changelog(&log);

  OnlineChecker checker(cluster);
  checker.bootstrap();
  const UnifiedGraph online = checker.graph().freeze();

  ClusterScan scan = scan_cluster(cluster);
  const AggregationResult offline = aggregate(scan.results);
  EXPECT_EQ(online.vertex_count(), offline.graph.vertex_count());
  EXPECT_EQ(online.edge_count(), offline.graph.edge_count());
  EXPECT_EQ(online.unpaired_edges().size(),
            offline.graph.unpaired_edges().size());
}

/// Every edge of `graph` as (source FID, target FID, kind), sorted: the
/// edge multiset, independent of GID numbering.
std::vector<std::tuple<Fid, Fid, EdgeKind>> fid_edges(
    const UnifiedGraph& graph) {
  std::vector<std::tuple<Fid, Fid, EdgeKind>> edges;
  const Csr& forward = graph.forward();
  for (Gid v = 0; v < graph.vertex_count(); ++v) {
    for (std::uint64_t e = forward.edges_begin(v); e < forward.edges_end(v);
         ++e) {
      edges.emplace_back(graph.vertices().fid_of(v),
                         graph.vertices().fid_of(forward.target(e)),
                         forward.kind(e));
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// A finding's verdict, independent of GID numbering and rank bits.
using Verdict = std::tuple<InconsistencyCategory, FaultyField, Fid, Fid,
                           EdgeKind, Fid, bool, RepairKind>;

std::vector<Verdict> verdicts(const DetectionReport& report) {
  std::vector<Verdict> out;
  for (const Finding& f : report.findings) {
    out.emplace_back(f.category, f.culprit, f.source, f.target, f.edge_kind,
                     f.convicted_object, f.convicted_id_field,
                     f.repair.kind);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(OnlineCheckerTest, OstRecordsIgnoreTheTypeByteLikeTheOfflineScan) {
  // A raw OST scan reads every in-use inode as a stripe object with its
  // ObjLinkEA edge, whatever its type byte says. The online checker
  // reads the same bytes, so it must hold the same records: FID by FID
  // and edge by edge, and its check must convict what the offline check
  // convicts.
  LustreCluster cluster = testing::make_populated_cluster(150, 78);
  ChangeLog log;
  cluster.attach_changelog(&log);
  FaultInjector injector(cluster, 7878);
  (void)injector.inject(Scenario::kMismatchTargetProperty);
  int forged = 0;
  testing::for_each_inode_mut(cluster.osts()[1].image, [&](Inode& inode) {
    if (forged == 0) inode.type = InodeType::kRegular;
    if (forged == 1) inode.type = InodeType::kDirectory;
    ++forged;
  });
  ASSERT_GE(forged, 2);

  OnlineChecker checker(cluster);
  checker.bootstrap();
  const UnifiedGraph online = checker.graph().freeze();
  ClusterScan scan = scan_cluster(cluster);
  const AggregationResult offline = aggregate(scan.results);
  ASSERT_EQ(online.vertex_count(), offline.graph.vertex_count());
  for (Gid v = 0; v < offline.graph.vertex_count(); ++v) {
    const Fid& fid = offline.graph.vertices().fid_of(v);
    const Gid w = online.vertices().lookup(fid);
    ASSERT_NE(w, kInvalidGid) << fid.to_string();
    EXPECT_EQ(online.vertices().kind_of(w), offline.graph.vertices().kind_of(v))
        << fid.to_string();
    EXPECT_EQ(online.vertices().scan_count(w),
              offline.graph.vertices().scan_count(v))
        << fid.to_string();
  }
  EXPECT_EQ(fid_edges(online), fid_edges(offline.graph));

  const OnlineCheckResult result = checker.check();
  const CheckerResult offline_check = run_checker(cluster);
  EXPECT_FALSE(offline_check.report.consistent());
  EXPECT_EQ(verdicts(result.report), verdicts(offline_check.report));
}

TEST(OnlineCheckerTest, CatchUpTracksNamespaceChurn) {
  LustreCluster cluster = testing::make_populated_cluster(100, 62);
  ChangeLog log;
  cluster.attach_changelog(&log);
  OnlineChecker checker(cluster);
  checker.bootstrap();

  const Fid dir = cluster.mkdir(cluster.root(), "new_dir");
  const Fid file = cluster.create_file(dir, "new_file", 3 * 64 * 1024);
  EXPECT_EQ(checker.catch_up(), 2u);
  EXPECT_TRUE(checker.graph().contains(dir));
  EXPECT_TRUE(checker.graph().contains(file));

  // The online graph must agree with a fresh offline scan, healthily.
  const UnifiedGraph snapshot = checker.graph().freeze();
  ClusterScan scan = scan_cluster(cluster);
  const AggregationResult offline = aggregate(scan.results);
  EXPECT_EQ(snapshot.vertex_count(), offline.graph.vertex_count());
  EXPECT_EQ(snapshot.edge_count(), offline.graph.edge_count());
  EXPECT_TRUE(snapshot.unpaired_edges().empty());
}

TEST(OnlineCheckerTest, CatchUpTracksUnlink) {
  LustreCluster cluster(4, StripePolicy{64 * 1024, -1});
  ChangeLog log;
  cluster.attach_changelog(&log);
  const Fid file = cluster.create_file(cluster.root(), "gone", 2 * 64 * 1024);
  OnlineChecker checker(cluster);
  checker.bootstrap();

  cluster.unlink(cluster.root(), "gone");
  EXPECT_EQ(checker.catch_up(), 1u);
  EXPECT_FALSE(checker.graph().contains(file));
  EXPECT_TRUE(checker.check().report.consistent());
}

TEST(OnlineCheckerTest, CatchUpIsIdempotent) {
  LustreCluster cluster = testing::make_populated_cluster(50, 63);
  ChangeLog log;
  cluster.attach_changelog(&log);
  OnlineChecker checker(cluster);
  checker.bootstrap();
  cluster.mkdir(cluster.root(), "x");
  EXPECT_EQ(checker.catch_up(), 1u);
  EXPECT_EQ(checker.catch_up(), 0u);
}

TEST(OnlineCheckerTest, HealthyClusterChecksConsistentUnderChurn) {
  LustreCluster cluster = testing::make_populated_cluster(100, 64);
  ChangeLog log;
  cluster.attach_changelog(&log);
  OnlineChecker checker(cluster);
  checker.bootstrap();

  for (int round = 0; round < 5; ++round) {
    const Fid dir =
        cluster.mkdir(cluster.root(), "round" + std::to_string(round));
    for (int i = 0; i < 10; ++i) {
      cluster.create_file(dir, "f" + std::to_string(i), 100 * 1024);
    }
    checker.catch_up();
    const OnlineCheckResult result = checker.check();
    EXPECT_TRUE(result.report.consistent()) << "round " << round;
  }
}

TEST(OnlineCheckerTest, ScrubSurfacesRawCorruption) {
  LustreCluster cluster = testing::make_populated_cluster(100, 65);
  ChangeLog log;
  cluster.attach_changelog(&log);
  OnlineChecker checker(cluster);
  checker.bootstrap();
  EXPECT_TRUE(checker.check().report.consistent());

  // Raw corruption: invisible to the changelog…
  FaultInjector injector(cluster, 6565);
  const GroundTruth truth = injector.inject(Scenario::kMismatchTargetProperty);
  checker.catch_up();
  EXPECT_TRUE(checker.check().report.consistent());  // …until scrubbed.

  checker.full_scrub();
  const OnlineCheckResult result = checker.check();
  EXPECT_FALSE(result.report.consistent());
  const EvalOutcome outcome = evaluate_report(result.report, truth);
  EXPECT_TRUE(outcome.detected);
  EXPECT_TRUE(outcome.root_cause_identified);
}

TEST(OnlineCheckerTest, ScrubHandlesIdCorruption) {
  LustreCluster cluster = testing::make_populated_cluster(100, 66);
  ChangeLog log;
  cluster.attach_changelog(&log);
  OnlineChecker checker(cluster);
  checker.bootstrap();

  FaultInjector injector(cluster, 6666);
  const GroundTruth truth = injector.inject(Scenario::kDanglingTargetId);
  checker.full_scrub();

  // The stale identity is retired and the corrupt one stands alone.
  EXPECT_FALSE(checker.graph().contains(truth.victim));
  EXPECT_TRUE(checker.graph().contains(truth.current));
  const OnlineCheckResult result = checker.check();
  const EvalOutcome outcome = evaluate_report(result.report, truth);
  EXPECT_TRUE(outcome.root_cause_identified);
}

TEST(OnlineCheckerTest, ScrubStepRespectsBatchBudget) {
  LustreCluster cluster = testing::make_populated_cluster(200, 67);
  ChangeLog log;
  cluster.attach_changelog(&log);
  OnlineCheckerConfig config;
  config.scrub_batch = 32;
  OnlineChecker checker(cluster, config);
  checker.bootstrap();
  // Each step refreshes at most the batch budget of inodes.
  EXPECT_LE(checker.scrub_step(), 32u);
}

TEST(OnlineCheckerTest, ScrubEventuallyCoversEverything) {
  LustreCluster cluster = testing::make_populated_cluster(60, 68);
  ChangeLog log;
  cluster.attach_changelog(&log);
  OnlineCheckerConfig config;
  config.scrub_batch = 16;
  OnlineChecker checker(cluster, config);
  checker.bootstrap();

  FaultInjector injector(cluster, 6868);
  const GroundTruth truth =
      injector.inject(Scenario::kMismatchTargetProperty);

  // Enough steps to sweep all servers at least once.
  std::uint64_t total_slots = cluster.mdt().image.inode_slots();
  for (const auto& ost : cluster.osts()) {
    total_slots += ost.image.inode_slots();
  }
  const std::size_t steps =
      static_cast<std::size_t>(total_slots / config.scrub_batch) + 10;
  for (std::size_t i = 0; i < steps; ++i) checker.scrub_step();

  const EvalOutcome outcome =
      evaluate_report(checker.check().report, truth);
  EXPECT_TRUE(outcome.detected);
}

TEST(OnlineCheckerTest, GrowthAfterBootstrapIsScrubbable) {
  // Inodes allocated after bootstrap extend the tables; scrub must
  // grow its shadow state rather than walk off the end.
  LustreCluster cluster = testing::make_populated_cluster(30, 69);
  ChangeLog log;
  cluster.attach_changelog(&log);
  OnlineChecker checker(cluster);
  checker.bootstrap();
  for (int i = 0; i < 50; ++i) {
    cluster.create_file(cluster.root(), "late" + std::to_string(i),
                        200 * 1024);
  }
  checker.catch_up();
  checker.full_scrub();
  EXPECT_TRUE(checker.check().report.consistent());
}


TEST(OnlineCheckerTest, WarmStartConvergesFasterAfterSmallChurn) {
  LustreCluster cluster = testing::make_populated_cluster(300, 70);
  ChangeLog log;
  cluster.attach_changelog(&log);

  OnlineCheckerConfig warm_config;
  warm_config.rank.epsilon = 1e-3;  // tight enough that iterations differ
  OnlineChecker warm(cluster, warm_config);
  warm.bootstrap();
  const std::size_t cold_iterations = warm.check().ranks.iterations;

  cluster.create_file(cluster.root(), "one_more", 100 * 1024);
  warm.catch_up();
  const std::size_t warm_iterations = warm.check().ranks.iterations;
  EXPECT_LT(warm_iterations, cold_iterations);
}

TEST(OnlineCheckerTest, WarmStartDoesNotChangeFindings) {
  LustreCluster c1 = testing::make_populated_cluster(150, 71);
  LustreCluster c2 = testing::make_populated_cluster(150, 71);
  ChangeLog l1, l2;
  c1.attach_changelog(&l1);
  c2.attach_changelog(&l2);

  OnlineCheckerConfig warm_config;
  OnlineCheckerConfig cold_config;
  cold_config.warm_start = false;
  OnlineChecker warm(c1, warm_config);
  OnlineChecker cold(c2, cold_config);
  warm.bootstrap();
  cold.bootstrap();
  (void)warm.check();  // prime the warm-start cache
  (void)cold.check();

  FaultInjector i1(c1, 717);
  FaultInjector i2(c2, 717);
  i1.inject(Scenario::kMismatchTargetProperty);
  i2.inject(Scenario::kMismatchTargetProperty);
  warm.full_scrub();
  cold.full_scrub();

  const OnlineCheckResult a = warm.check();
  const OnlineCheckResult b = cold.check();
  ASSERT_EQ(a.report.findings.size(), b.report.findings.size());
  for (std::size_t i = 0; i < a.report.findings.size(); ++i) {
    EXPECT_EQ(a.report.findings[i].convicted_object,
              b.report.findings[i].convicted_object);
    EXPECT_EQ(a.report.findings[i].repair.kind,
              b.report.findings[i].repair.kind);
  }
}

/// The ranks a warm-started check must produce: `previous` ranks carried
/// over to `graph` by FID (uniform for new vertices), then iterated.
FaultyRankResult rank_warm_by_fid(const UnifiedGraph& before,
                                  const FaultyRankResult& previous,
                                  const UnifiedGraph& graph) {
  std::unordered_map<Fid, Gid, FidHash> gid_before;
  for (Gid v = 0; v < before.vertex_count(); ++v) {
    gid_before.emplace(before.vertices().fid_of(v), v);
  }
  FaultyRankConfig config = OnlineCheckerConfig{}.rank;
  std::vector<double> warm_id(graph.vertex_count(), config.initial_rank);
  std::vector<double> warm_prop(graph.vertex_count(), config.initial_rank);
  for (Gid v = 0; v < graph.vertex_count(); ++v) {
    const auto it = gid_before.find(graph.vertices().fid_of(v));
    if (it == gid_before.end()) continue;
    warm_id[v] = previous.id_rank[it->second];
    warm_prop[v] = previous.prop_rank[it->second];
  }
  config.initial_id_ranks = &warm_id;
  config.initial_prop_ranks = &warm_prop;
  const PropagationPlan plan =
      PropagationPlan::build(graph, config.unpaired_weight);
  return run_faultyrank(graph, plan, config);
}

void expect_same_ranks(const FaultyRankResult& want,
                       const FaultyRankResult& got) {
  EXPECT_EQ(want.iterations, got.iterations);
  ASSERT_EQ(want.id_rank, got.id_rank);
  ASSERT_EQ(want.prop_rank, got.prop_rank);
}

TEST(OnlineCheckerTest, WarmStartCarriesRanksOverByFid) {
  LustreCluster cluster = testing::make_populated_cluster(200, 73);
  ChangeLog log;
  cluster.attach_changelog(&log);
  cluster.create_file(cluster.root(), "doomed", 100 * 1024);
  OnlineChecker checker(cluster);
  checker.bootstrap();
  const OnlineCheckResult first = checker.check();
  const UnifiedGraph first_graph = checker.graph().freeze();

  // Vertices leave and arrive, so GIDs shift between the snapshots.
  cluster.unlink(cluster.root(), "doomed");
  cluster.create_file(cluster.root(), "fresh", 100 * 1024);
  checker.catch_up();
  const OnlineCheckResult second = checker.check();
  ASSERT_FALSE(second.plan_reused);
  const UnifiedGraph second_graph = checker.graph().freeze();
  expect_same_ranks(rank_warm_by_fid(first_graph, first.ranks, second_graph),
                    second.ranks);

  const OnlineCheckResult third = checker.check();
  ASSERT_TRUE(third.plan_reused);
  expect_same_ranks(
      rank_warm_by_fid(second_graph, second.ranks, second_graph), third.ranks);
}

TEST(OnlineCheckerTest, PlanReusedAcrossUnchangedChecks) {
  LustreCluster cluster = testing::make_populated_cluster(120, 72);
  ChangeLog log;
  cluster.attach_changelog(&log);
  OnlineCheckerConfig config;
  config.warm_start = false;  // identical inputs → identical ranks
  OnlineChecker checker(cluster, config);
  checker.bootstrap();

  // First check builds the snapshot + plan; the next two reuse them.
  const OnlineCheckResult first = checker.check();
  EXPECT_FALSE(first.plan_reused);
  const OnlineCheckResult second = checker.check();
  EXPECT_TRUE(second.plan_reused);
  const OnlineCheckResult third = checker.check();
  EXPECT_TRUE(third.plan_reused);
  EXPECT_EQ(first.ranks.id_rank, second.ranks.id_rank);
  EXPECT_EQ(second.ranks.id_rank, third.ranks.id_rank);

  // Any real mutation invalidates the cache; the rebuilt plan sticks
  // again afterwards.
  cluster.create_file(cluster.root(), "newcomer", 64 * 1024);
  checker.catch_up();
  const OnlineCheckResult after_churn = checker.check();
  EXPECT_FALSE(after_churn.plan_reused);
  EXPECT_GT(after_churn.vertices, first.vertices);
  EXPECT_TRUE(checker.check().plan_reused);
}

TEST(OnlineCheckerTest, NoOpScrubKeepsPlanCached) {
  LustreCluster cluster = testing::make_populated_cluster(80, 73);
  ChangeLog log;
  cluster.attach_changelog(&log);
  OnlineChecker checker(cluster);
  checker.bootstrap();
  (void)checker.check();

  // Scrubbing a healthy, unchanged filesystem reproduces every object
  // verbatim — the generation must not move, so the plan survives.
  checker.full_scrub();
  EXPECT_TRUE(checker.check().plan_reused);

  checker.bootstrap();  // a re-bootstrap always drops the cache
  EXPECT_FALSE(checker.check().plan_reused);
}

TEST(OnlineCheckerTest, PlanNotReusedOnceScrubSeesCorruption) {
  // Regression for the plan-reuse × scrub interleaving: a corrupted EA
  // is invisible to the changelog, so a catch_up-only check may validly
  // reuse its cached plan and miss it — but the check after the scrub
  // reaches the corrupt inode MUST re-freeze and convict. A cached
  // plan surviving a graph-changing scrub would report "consistent"
  // forever.
  LustreCluster cluster = testing::make_populated_cluster(120, 75);
  ChangeLog log;
  cluster.attach_changelog(&log);
  OnlineChecker checker(cluster);
  checker.bootstrap();
  (void)checker.check();  // prime the snapshot + plan cache

  FaultInjector injector(cluster, 7575);
  const GroundTruth truth = injector.inject(Scenario::kMismatchTargetProperty);

  EXPECT_EQ(checker.catch_up(), 0u);  // raw corruption, no records
  const OnlineCheckResult before_scrub = checker.check();
  EXPECT_TRUE(before_scrub.plan_reused);
  EXPECT_TRUE(before_scrub.report.consistent());

  checker.full_scrub();
  const OnlineCheckResult after_scrub = checker.check();
  EXPECT_FALSE(after_scrub.plan_reused);
  EXPECT_FALSE(after_scrub.report.consistent());
  EXPECT_TRUE(evaluate_report(after_scrub.report, truth).detected);
}

TEST(OnlineCheckerTest, CatchUpToleratesRepairRestoredIdentity) {
  // Regression for the repair × changelog interleaving: scrubbing a
  // corrupted directory id retires its vertex; the repair then restores
  // the id through the raw image (bypassing the changelog); traffic
  // creating under the restored directory logs records whose parent
  // the graph no longer knows. catch_up must re-materialize the
  // endpoint, not throw.
  LustreCluster cluster = testing::make_populated_cluster(120, 76);
  ChangeLog log;
  cluster.attach_changelog(&log);
  OnlineChecker checker(cluster);
  checker.bootstrap();

  FaultInjector injector(cluster, 7676);
  const GroundTruth truth = injector.inject(Scenario::kUnreferencedTargetId);
  checker.full_scrub();
  EXPECT_FALSE(checker.graph().contains(truth.victim));

  const OnlineCheckResult detected = checker.check();
  ASSERT_FALSE(detected.report.consistent());
  RepairExecutor executor(cluster);
  executor.apply_all(detected.report.repair_plan());

  // The directory answers to its original id again; new children log
  // changelog records referencing a fid the graph retired.
  const Fid child = cluster.create_file(truth.victim, "post_repair", 64 * 1024);
  EXPECT_NO_THROW(checker.catch_up());
  EXPECT_TRUE(checker.graph().contains(child));

  checker.full_scrub();
  EXPECT_TRUE(checker.check().report.consistent());
}

TEST(OnlineCheckerTest, DuplicateIdDetectionMatchesOffline) {
  // Regression for the duplicate-id collapse: two physical inodes
  // sharing one fid must appear in the frozen snapshot with the union
  // of both edge sets AND a scan count > 1, exactly as the offline
  // merge of per-inode partials produces — otherwise the Double
  // Reference conviction (and its id-overwrite repair) is lost.
  LustreCluster cluster = testing::make_populated_cluster(150, 77);
  ChangeLog log;
  cluster.attach_changelog(&log);
  FaultInjector injector(cluster, 7777);
  const GroundTruth truth = injector.inject(Scenario::kDoubleRefDuplicateId);

  OnlineChecker checker(cluster);
  checker.bootstrap();
  const UnifiedGraph online = checker.graph().freeze();
  ClusterScan scan = scan_cluster(cluster);
  const AggregationResult offline = aggregate(scan.results);
  EXPECT_EQ(online.vertex_count(), offline.graph.vertex_count());
  EXPECT_EQ(online.edge_count(), offline.graph.edge_count());
  const Gid dup = online.vertices().lookup(truth.current);
  ASSERT_NE(dup, kInvalidGid);
  EXPECT_GT(online.vertices().scan_count(dup), 1u);

  const OnlineCheckResult result = checker.check();
  const EvalOutcome outcome = evaluate_report(result.report, truth);
  EXPECT_TRUE(outcome.detected);
  EXPECT_TRUE(outcome.repair_recommended);

  // After the repair splits the twins apart, the scrub must dissolve
  // the shared claim and the graph must check clean.
  RepairExecutor executor(cluster);
  executor.apply_all(result.report.repair_plan());
  checker.full_scrub();
  EXPECT_TRUE(checker.check().report.consistent());
}

TEST(OnlineCheckerTest, PooledCheckMatchesSerialCheck) {
  LustreCluster c1 = testing::make_populated_cluster(150, 74);
  LustreCluster c2 = testing::make_populated_cluster(150, 74);

  ThreadPool pool(4);
  OnlineCheckerConfig pooled_config;
  pooled_config.pool = &pool;
  OnlineChecker pooled(c1, pooled_config);
  OnlineChecker serial(c2);
  pooled.bootstrap();
  serial.bootstrap();

  const OnlineCheckResult a = pooled.check();
  const OnlineCheckResult b = serial.check();
  EXPECT_EQ(a.ranks.id_rank, b.ranks.id_rank);
  EXPECT_EQ(a.ranks.prop_rank, b.ranks.prop_rank);
  EXPECT_EQ(a.ranks.iterations, b.ranks.iterations);
  EXPECT_EQ(a.report.findings.size(), b.report.findings.size());
}

}  // namespace
}  // namespace faultyrank
