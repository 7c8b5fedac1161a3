// End-to-end integration: inject → scan → rank → detect → repair →
// re-scan, across every scenario and several namespaces.
#include "checker/checker.h"

#include <gtest/gtest.h>

#include "faults/injector.h"
#include "lfsck/lfsck.h"
#include "pfs/persistence.h"
#include "testing/fixtures.h"

namespace faultyrank {
namespace {

TEST(CheckerTest, HealthyClusterReportsConsistent) {
  LustreCluster cluster = testing::make_populated_cluster(150, 41);
  const CheckerResult result = run_checker(cluster);
  EXPECT_TRUE(result.report.consistent());
  EXPECT_EQ(result.unpaired_edges, 0u);
  EXPECT_GT(result.vertices, 0u);
  EXPECT_GT(result.edges, 0u);
  EXPECT_EQ(result.inodes_scanned,
            cluster.mdt_inodes_used() + cluster.total_ost_objects());
}

TEST(CheckerTest, TimingBreakdownIsPopulated) {
  LustreCluster cluster = testing::make_populated_cluster(150, 42);
  const CheckerResult result = run_checker(cluster);
  EXPECT_GT(result.timings.t_scan_sim, 0.0);
  // Transfers stream to the MDS while slower scanners are still
  // running, so t_graph_sim carries only the unhidden surplus — which
  // a small cluster can pipeline away entirely.
  EXPECT_GE(result.timings.t_graph_sim, 0.0);
  EXPECT_GE(result.timings.t_fr_wall, 0.0);
  EXPECT_GE(result.timings.total_sim(),
            result.timings.t_scan_sim + result.timings.t_graph_sim);
}

TEST(CheckerTest, RepairsAreIdempotent) {
  LustreCluster cluster = testing::make_populated_cluster(150, 43);
  FaultInjector injector(cluster, 17);
  injector.inject(Scenario::kDanglingTargetId);

  CheckerConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  const CheckerResult first = run_checker(cluster, config);
  EXPECT_TRUE(first.verified_consistent);
  // A second full run finds nothing and changes nothing.
  const CheckerResult second = run_checker(cluster, config);
  EXPECT_TRUE(second.report.consistent());
  EXPECT_EQ(second.repairs_applied, 0u);
}

TEST(CheckerTest, ThreadPoolProducesSameReport) {
  LustreCluster c1 = testing::make_populated_cluster(150, 44);
  LustreCluster c2 = testing::make_populated_cluster(150, 44);
  FaultInjector i1(c1, 18);
  FaultInjector i2(c2, 18);
  i1.inject(Scenario::kMismatchTargetProperty);
  i2.inject(Scenario::kMismatchTargetProperty);

  const CheckerResult serial = run_checker(c1);
  ThreadPool pool(4);
  CheckerConfig parallel_config;
  parallel_config.pool = &pool;
  const CheckerResult parallel = run_checker(c2, parallel_config);
  ASSERT_EQ(serial.report.findings.size(), parallel.report.findings.size());
  for (std::size_t i = 0; i < serial.report.findings.size(); ++i) {
    EXPECT_EQ(serial.report.findings[i].repair.kind,
              parallel.report.findings[i].repair.kind);
    EXPECT_EQ(serial.report.findings[i].convicted_object,
              parallel.report.findings[i].convicted_object);
  }
}

// The Fig. 7 core claim, as a parameterized sweep: for every scenario ×
// seed, FaultyRank identifies the injected root cause, repairs it, and
// the repaired filesystem re-scans clean with the original metadata
// restored.
struct ScenarioCase {
  Scenario scenario;
  std::uint64_t seed;
};

// gtest would otherwise print the struct's bytes, padding included, so
// the ctest names would change from build to build.
void PrintTo(const ScenarioCase& c, std::ostream* os) {
  *os << to_string(c.scenario) << " seed " << c.seed;
}

class ScenarioSweepTest : public ::testing::TestWithParam<ScenarioCase> {};

TEST_P(ScenarioSweepTest, DetectsRepairsAndRestores) {
  const auto [scenario, seed] = GetParam();
  LustreCluster cluster = testing::make_populated_cluster(250, seed, 4);
  FaultInjector injector(cluster, seed * 1000 + 7);
  const GroundTruth truth = injector.inject(scenario);

  CheckerConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  const CheckerResult result = run_checker(cluster, config);

  const EvalOutcome outcome = evaluate_report(result.report, truth);
  EXPECT_TRUE(outcome.detected) << to_string(scenario);
  EXPECT_TRUE(outcome.root_cause_identified) << to_string(scenario);
  EXPECT_TRUE(outcome.repair_recommended) << to_string(scenario);
  EXPECT_TRUE(result.verified_consistent) << to_string(scenario);
  EXPECT_TRUE(verify_restored(cluster, truth)) << to_string(scenario);
}

std::vector<ScenarioCase> all_cases() {
  std::vector<ScenarioCase> cases;
  for (const Scenario scenario : kAllScenarios) {
    for (const std::uint64_t seed : {61ull, 62ull, 63ull}) {
      cases.push_back({scenario, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, ScenarioSweepTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<ScenarioCase>& info) {
      std::string name = to_string(info.param.scenario);
      for (char& ch : name) {
        if (ch == '/' || ch == '-') ch = '_';
      }
      return name + "_seed" + std::to_string(info.param.seed);
    });

// FaultyRank vs LFSCK on the paper's headline differentiators: the
// cases LFSCK cannot identify or repairs destructively, FaultyRank
// restores losslessly.
TEST(CheckerVsLfsckTest, SourcePropertyCorruption) {
  // FaultyRank re-links the corrupted property to the stranded stripes.
  LustreCluster fr_cluster = testing::make_populated_cluster(200, 71);
  FaultInjector fr_injector(fr_cluster, 19);
  const GroundTruth fr_truth =
      fr_injector.inject(Scenario::kDanglingSourceProperty);
  CheckerConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  const CheckerResult fr_result = run_checker(fr_cluster, config);
  EXPECT_TRUE(fr_result.verified_consistent);
  EXPECT_TRUE(verify_restored(fr_cluster, fr_truth));

  // LFSCK "repairs" by re-creating empty objects; the data reference is
  // never restored.
  LustreCluster lfsck_cluster = testing::make_populated_cluster(200, 71);
  FaultInjector lfsck_injector(lfsck_cluster, 19);
  const GroundTruth lfsck_truth =
      lfsck_injector.inject(Scenario::kDanglingSourceProperty);
  (void)run_lfsck(lfsck_cluster);
  EXPECT_FALSE(verify_restored(lfsck_cluster, lfsck_truth));
}

TEST(CheckerVsLfsckTest, CorruptedIdRestoredOnlyByFaultyRank) {
  LustreCluster fr_cluster = testing::make_populated_cluster(200, 72);
  FaultInjector fr_injector(fr_cluster, 20);
  const GroundTruth fr_truth = fr_injector.inject(Scenario::kMismatchSourceId);
  CheckerConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  (void)run_checker(fr_cluster, config);
  EXPECT_TRUE(verify_restored(fr_cluster, fr_truth));

  LustreCluster lfsck_cluster = testing::make_populated_cluster(200, 72);
  FaultInjector lfsck_injector(lfsck_cluster, 20);
  const GroundTruth lfsck_truth =
      lfsck_injector.inject(Scenario::kMismatchSourceId);
  (void)run_lfsck(lfsck_cluster);
  EXPECT_FALSE(verify_restored(lfsck_cluster, lfsck_truth));
}

TEST(CheckerTest, MultiFaultCampaignFullyRepaired) {
  LustreCluster cluster = testing::make_populated_cluster(400, 73);
  FaultInjector injector(cluster, 21);
  const std::vector<GroundTruth> truths = injector.inject_campaign(8);

  CheckerConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  const CheckerResult result = run_checker(cluster, config);
  EXPECT_TRUE(result.verified_consistent);
  std::size_t restored = 0;
  for (const GroundTruth& truth : truths) {
    if (verify_restored(cluster, truth)) ++restored;
  }
  // All simultaneous faults detected and repaired to original state.
  EXPECT_EQ(restored, truths.size());
}


TEST(UndoTest, CapturedImageRollsRepairsBack) {
  LustreCluster cluster = testing::make_populated_cluster(150, 74);
  FaultInjector injector(cluster, 22);
  const GroundTruth truth = injector.inject(Scenario::kMismatchTargetProperty);

  CheckerConfig config;
  config.apply_repairs = true;
  config.capture_undo = true;
  const CheckerResult result = run_checker(cluster, config);
  ASSERT_FALSE(result.undo_image.empty());
  EXPECT_GE(result.repairs_applied, 1u);
  EXPECT_TRUE(verify_restored(cluster, truth));

  // Roll back: the fault is present again, repairs undone.
  LustreCluster rolled_back = deserialize_cluster(result.undo_image);
  EXPECT_FALSE(verify_restored(rolled_back, truth));
  const CheckerResult recheck = run_checker(rolled_back);
  EXPECT_FALSE(recheck.report.consistent());
}

TEST(UndoTest, NoUndoCapturedWithoutRepairsOrFlag) {
  LustreCluster healthy = testing::make_populated_cluster(60, 75);
  CheckerConfig config;
  config.apply_repairs = true;
  config.capture_undo = true;
  // Healthy cluster: nothing to repair, nothing captured.
  EXPECT_TRUE(run_checker(healthy, config).undo_image.empty());

  LustreCluster broken = testing::make_populated_cluster(60, 76);
  FaultInjector injector(broken, 23);
  injector.inject(Scenario::kDanglingTargetId);
  CheckerConfig no_undo;
  no_undo.apply_repairs = true;
  EXPECT_TRUE(run_checker(broken, no_undo).undo_image.empty());
}

}  // namespace
}  // namespace faultyrank
