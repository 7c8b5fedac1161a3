#include "faults/injector.h"

#include <gtest/gtest.h>

#include "aggregator/aggregator.h"
#include "scanner/scanner.h"
#include "testing/fixtures.h"

namespace faultyrank {
namespace {

UnifiedGraph scan_to_graph(const LustreCluster& cluster) {
  ClusterScan scan = scan_cluster(cluster);
  return aggregate(scan.results).graph;
}

TEST(InjectorTest, DanglingSourcePropertyCorruptsEverySlot) {
  LustreCluster cluster = testing::make_populated_cluster(100, 31);
  FaultInjector injector(cluster, 7);
  const GroundTruth truth =
      injector.inject(Scenario::kDanglingSourceProperty);
  EXPECT_FALSE(truth.id_field);
  EXPECT_EQ(truth.victim, truth.current);
  const Inode* file = cluster.mdt().image.find_by_fid_raw(truth.victim);
  ASSERT_NE(file, nullptr);
  for (const auto& slot : file->lov_ea->stripes) {
    EXPECT_EQ(slot.stripe.seq, 0xdeadbeefULL);
  }
}

TEST(InjectorTest, DanglingTargetIdLeavesStaleReference) {
  LustreCluster cluster = testing::make_populated_cluster(100, 32);
  FaultInjector injector(cluster, 8);
  const GroundTruth truth = injector.inject(Scenario::kDanglingTargetId);
  EXPECT_TRUE(truth.id_field);
  EXPECT_NE(truth.victim, truth.current);
  // No object carries the original id; one carries the bogus id.
  bool original_exists = false;
  bool bogus_exists = false;
  for (const auto& ost : cluster.osts()) {
    if (ost.image.find_by_fid_raw(truth.victim)) original_exists = true;
    if (ost.image.find_by_fid_raw(truth.current)) bogus_exists = true;
  }
  EXPECT_FALSE(original_exists);
  EXPECT_TRUE(bogus_exists);
}

TEST(InjectorTest, UnreferencedNeighborPropsEmptiesDirectory) {
  LustreCluster cluster = testing::make_populated_cluster(100, 33);
  FaultInjector injector(cluster, 9);
  const GroundTruth truth =
      injector.inject(Scenario::kUnreferencedNeighborProps);
  const Inode* dir = cluster.mdt().image.find_by_fid_raw(truth.victim);
  ASSERT_NE(dir, nullptr);
  EXPECT_TRUE(dir->dirents.empty());
}

TEST(InjectorTest, DuplicateIdCreatesScanCollision) {
  LustreCluster cluster = testing::make_populated_cluster(100, 34);
  FaultInjector injector(cluster, 10);
  const GroundTruth truth = injector.inject(Scenario::kDoubleRefDuplicateId);
  const UnifiedGraph graph = scan_to_graph(cluster);
  const Gid shared = graph.vertices().lookup(truth.current);
  ASSERT_NE(shared, kInvalidGid);
  EXPECT_GT(graph.vertices().scan_count(shared), 1u);
}

TEST(InjectorTest, EveryScenarioBreaksTheGraph) {
  for (const Scenario scenario : kAllScenarios) {
    LustreCluster cluster = testing::make_populated_cluster(120, 35);
    FaultInjector injector(cluster, 11);
    const GroundTruth truth = injector.inject(scenario);
    EXPECT_EQ(category_of(truth.scenario), category_of(scenario));
    const UnifiedGraph graph = scan_to_graph(cluster);
    const bool has_unpaired = !graph.unpaired_edges().empty();
    bool has_collision = false;
    for (Gid v = 0; v < graph.vertex_count(); ++v) {
      if (graph.vertices().scan_count(v) > 1) has_collision = true;
    }
    bool has_over_reference = false;
    for (Gid v = 0; v < graph.vertex_count(); ++v) {
      std::size_t claims = 0;
      const Csr& rev = graph.reverse();
      for (auto s = rev.edges_begin(v); s < rev.edges_end(v); ++s) {
        if (rev.kind(s) == EdgeKind::kLovEa || rev.kind(s) == EdgeKind::kDirent) {
          ++claims;
        }
      }
      if (claims > 1) has_over_reference = true;
    }
    EXPECT_TRUE(has_unpaired || has_collision || has_over_reference)
        << to_string(scenario);
  }
}

TEST(InjectorTest, CampaignUsesDistinctVictims) {
  LustreCluster cluster = testing::make_populated_cluster(300, 36);
  FaultInjector injector(cluster, 12);
  const std::vector<GroundTruth> truths = injector.inject_campaign(8);
  ASSERT_EQ(truths.size(), 8u);
  for (std::size_t i = 0; i < truths.size(); ++i) {
    for (std::size_t j = i + 1; j < truths.size(); ++j) {
      EXPECT_NE(truths[i].victim, truths[j].victim);
    }
  }
}

TEST(InjectorTest, ThrowsWhenNoEligibleVictim) {
  LustreCluster cluster(2);  // empty: only the root
  FaultInjector injector(cluster, 13);
  EXPECT_THROW(injector.inject(Scenario::kDanglingTargetId), InjectionError);
  EXPECT_THROW(injector.inject(Scenario::kUnreferencedNeighborProps),
               InjectionError);
}

TEST(InjectorTest, DeterministicForFixedSeed) {
  LustreCluster c1 = testing::make_populated_cluster(100, 37);
  LustreCluster c2 = testing::make_populated_cluster(100, 37);
  FaultInjector i1(c1, 14);
  FaultInjector i2(c2, 14);
  const GroundTruth t1 = i1.inject(Scenario::kMismatchSourceId);
  const GroundTruth t2 = i2.inject(Scenario::kMismatchSourceId);
  EXPECT_EQ(t1.victim, t2.victim);
  EXPECT_EQ(t1.current, t2.current);
}

TEST(InjectorTest, VerifyRestoredIsFalseRightAfterInjection) {
  for (const Scenario scenario : kAllScenarios) {
    LustreCluster cluster = testing::make_populated_cluster(120, 38);
    FaultInjector injector(cluster, 15);
    const GroundTruth truth = injector.inject(scenario);
    // The corrupted field is, by definition, not in its original state.
    // (Double-ref duplicate-property keeps the victim's id AND still
    // references... no: the original slot value was replaced.)
    EXPECT_FALSE(verify_restored(cluster, truth)) << to_string(scenario);
  }
}

TEST(InjectorTest, EvaluateReportScoresEmptyReportAsUndetected) {
  LustreCluster cluster = testing::make_populated_cluster(60, 39);
  FaultInjector injector(cluster, 16);
  const GroundTruth truth = injector.inject(Scenario::kDanglingTargetId);
  const DetectionReport empty;
  const EvalOutcome outcome = evaluate_report(empty, truth);
  EXPECT_FALSE(outcome.detected);
  EXPECT_FALSE(outcome.root_cause_identified);
}

}  // namespace
}  // namespace faultyrank
