#include "core/detector.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace faultyrank {
namespace {

using testing::Fig3Fids;
using testing::make_fig3_consistent_graph;
using testing::make_fig3_graph;

DetectionReport detect(const UnifiedGraph& graph) {
  FaultyRankConfig config;
  config.epsilon = 1e-3;
  const FaultyRankResult ranks = run_faultyrank(graph, config);
  return detect_inconsistencies(graph, ranks);
}

TEST(DetectorTest, ConsistentGraphYieldsNoFindings) {
  const DetectionReport report = detect(make_fig3_consistent_graph());
  EXPECT_TRUE(report.consistent());
  EXPECT_TRUE(report.repair_plan().empty());
}

TEST(DetectorTest, Fig3FindsBothInjectedInconsistencies) {
  const UnifiedGraph g = make_fig3_graph();
  const DetectionReport report = detect(g);
  const Fig3Fids fids;
  ASSERT_EQ(report.findings.size(), 2u);

  // c's missing LinkEA: a→c mismatch convicting c's property.
  const Finding* c_finding = nullptr;
  const Finding* b_finding = nullptr;
  for (const Finding& f : report.findings) {
    if (f.convicted_object == fids.c) c_finding = &f;
    if (f.convicted_object == fids.b) b_finding = &f;
  }
  ASSERT_NE(c_finding, nullptr);
  EXPECT_EQ(c_finding->culprit, FaultyField::kTargetProperty);
  EXPECT_FALSE(c_finding->convicted_id_field);
  EXPECT_EQ(c_finding->repair.kind, RepairKind::kAddBackPointer);
  EXPECT_EQ(c_finding->repair.target, fids.c);
  EXPECT_EQ(c_finding->repair.value, fids.a);

  // The b↔d inconsistency: in the Fig. 3 graph b carries no LOVEA edge
  // at all, so the structural evidence convicts b's property and the
  // repair reconnects b → d — the lossless reconstruction (the paper
  // reads the same record through d's minimal id rank; either way the
  // only consistent, data-preserving fix is relinking the pair).
  ASSERT_NE(b_finding, nullptr);
  EXPECT_EQ(b_finding->culprit, FaultyField::kTargetProperty);
  EXPECT_EQ(b_finding->repair.kind, RepairKind::kAddBackPointer);
  EXPECT_EQ(b_finding->repair.target, fids.b);
  EXPECT_EQ(b_finding->repair.value, fids.d);
  EXPECT_EQ(b_finding->category, InconsistencyCategory::kUnreferencedObject);
}

TEST(DetectorTest, CategoriesCountedCorrectly) {
  const DetectionReport report = detect(make_fig3_graph());
  EXPECT_EQ(report.count(InconsistencyCategory::kMismatch) +
                report.count(InconsistencyCategory::kUnreferencedObject),
            2u);
  EXPECT_EQ(report.count(InconsistencyCategory::kDoubleReference), 0u);
}

TEST(DetectorTest, DanglingToPhantomWithMisidentifiedObject) {
  // a → b_old (phantom); b (scanned, unreferenced) → a. Classic
  // "b's id is wrong" dangling: repair rewrites b's id to b_old.
  const Fid a{1, 1, 0}, b_old{1, 2, 0}, b_new{1, 99, 0};
  PartialGraph p;
  p.server = "mds0";
  p.add_vertex(a, ObjectKind::kFile);
  p.add_vertex(b_new, ObjectKind::kStripeObject);
  p.add_edge(a, b_old, EdgeKind::kLovEa);
  p.add_edge(b_new, a, EdgeKind::kObjParent);
  const PartialGraph partials[] = {p};
  const UnifiedGraph g = UnifiedGraph::aggregate(partials);

  DetectorConfig config;
  config.root = a;  // exempt a from the unreferenced check
  FaultyRankConfig rank_config;
  rank_config.epsilon = 1e-3;
  const auto ranks = run_faultyrank(g, rank_config);
  const DetectionReport report = detect_inconsistencies(g, ranks, config);

  const Finding* dangling = nullptr;
  for (const Finding& f : report.findings) {
    if (f.category == InconsistencyCategory::kDanglingReference) dangling = &f;
  }
  ASSERT_NE(dangling, nullptr);
  EXPECT_EQ(dangling->culprit, FaultyField::kTargetId);
  EXPECT_EQ(dangling->repair.kind, RepairKind::kOverwriteId);
  EXPECT_EQ(dangling->repair.target, b_new);
  EXPECT_EQ(dangling->repair.value, b_old);
}

TEST(DetectorTest, AllSlotsDanglingConvictsSourceProperty) {
  // File f's two LOVEA slots both point at bogus ids while its two real
  // stripes still point back: §II-C aggregate evidence.
  const Fid f{1, 1, 0}, bogus1{9, 1, 0}, bogus2{9, 2, 0}, s1{2, 1, 0},
      s2{2, 2, 0}, parent{1, 100, 0};
  PartialGraph p;
  p.server = "mds0";
  p.add_vertex(parent, ObjectKind::kDirectory);
  p.add_vertex(f, ObjectKind::kFile);
  p.add_vertex(s1, ObjectKind::kStripeObject);
  p.add_vertex(s2, ObjectKind::kStripeObject);
  p.add_edge(parent, f, EdgeKind::kDirent);
  p.add_edge(f, parent, EdgeKind::kLinkEa);
  p.add_edge(f, bogus1, EdgeKind::kLovEa);
  p.add_edge(f, bogus2, EdgeKind::kLovEa);
  p.add_edge(s1, f, EdgeKind::kObjParent);
  p.add_edge(s2, f, EdgeKind::kObjParent);
  const PartialGraph partials[] = {p};
  const UnifiedGraph g = UnifiedGraph::aggregate(partials);
  DetectorConfig config;
  config.root = parent;
  FaultyRankConfig rank_config;
  rank_config.epsilon = 1e-3;
  const DetectionReport report =
      detect_inconsistencies(g, run_faultyrank(g, rank_config), config);

  std::size_t relinks = 0;
  for (const Finding& finding : report.findings) {
    if (finding.repair.kind == RepairKind::kRelinkProperty) {
      EXPECT_EQ(finding.culprit, FaultyField::kSourceProperty);
      EXPECT_EQ(finding.repair.target, f);
      EXPECT_TRUE(finding.repair.value == s1 || finding.repair.value == s2);
      ++relinks;
    }
  }
  // Both corrupted slots are re-linked to distinct stranded stripes.
  EXPECT_EQ(relinks, 2u);
  const RepairPlan plan = report.repair_plan();
  bool distinct = false;
  for (const auto& action : plan) {
    for (const auto& other : plan) {
      if (&action != &other && action.kind == RepairKind::kRelinkProperty &&
          other.kind == RepairKind::kRelinkProperty &&
          action.value != other.value) {
        distinct = true;
      }
    }
  }
  EXPECT_TRUE(distinct);
}

TEST(DetectorTest, OverReferenceKeepsAcknowledgedClaimant) {
  // Two files claim stripe s; s acknowledges only c.
  const Fid a{1, 1, 0}, c{1, 2, 0}, s{2, 1, 0}, root{1, 100, 0};
  PartialGraph p;
  p.server = "mds0";
  p.add_vertex(root, ObjectKind::kDirectory);
  p.add_vertex(a, ObjectKind::kFile);
  p.add_vertex(c, ObjectKind::kFile);
  p.add_vertex(s, ObjectKind::kStripeObject);
  p.add_edge(root, a, EdgeKind::kDirent);
  p.add_edge(root, c, EdgeKind::kDirent);
  p.add_edge(a, root, EdgeKind::kLinkEa);
  p.add_edge(c, root, EdgeKind::kLinkEa);
  p.add_edge(a, s, EdgeKind::kLovEa);
  p.add_edge(c, s, EdgeKind::kLovEa);
  p.add_edge(s, c, EdgeKind::kObjParent);
  const PartialGraph partials[] = {p};
  const UnifiedGraph g = UnifiedGraph::aggregate(partials);
  DetectorConfig config;
  config.root = root;
  FaultyRankConfig rank_config;
  rank_config.epsilon = 1e-3;
  const DetectionReport report =
      detect_inconsistencies(g, run_faultyrank(g, rank_config), config);

  const Finding* double_ref = nullptr;
  for (const Finding& f : report.findings) {
    if (f.category == InconsistencyCategory::kDoubleReference) double_ref = &f;
  }
  ASSERT_NE(double_ref, nullptr);
  // a (unacknowledged) loses its claim, never c.
  EXPECT_EQ(double_ref->repair.target, a);
  EXPECT_EQ(double_ref->culprit, FaultyField::kSourceProperty);
}

TEST(DetectorTest, IsolatedObjectGoesToLostFound) {
  const Fid root{1, 100, 0}, orphan{2, 1, 0};
  PartialGraph p;
  p.server = "mds0";
  p.add_vertex(root, ObjectKind::kDirectory);
  p.add_vertex(orphan, ObjectKind::kStripeObject);
  const PartialGraph partials[] = {p};
  const UnifiedGraph g = UnifiedGraph::aggregate(partials);
  DetectorConfig config;
  config.root = root;
  const DetectionReport report =
      detect_inconsistencies(g, run_faultyrank(g), config);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].category,
            InconsistencyCategory::kUnreferencedObject);
  EXPECT_EQ(report.findings[0].repair.kind,
            RepairKind::kQuarantineLostFound);
  EXPECT_EQ(report.findings[0].repair.target, orphan);
}

TEST(DetectorTest, RepairPlanDeduplicatesIdenticalActions) {
  // A directory with a corrupted id: every child's dangling parent link
  // resolves to the same overwrite-id action.
  const Fid root{1, 100, 0}, dir_old{1, 1, 0}, dir_new{1, 99, 0},
      c1{1, 2, 0}, c2{1, 3, 0};
  PartialGraph p;
  p.server = "mds0";
  p.add_vertex(root, ObjectKind::kDirectory);
  p.add_vertex(dir_new, ObjectKind::kDirectory);
  p.add_vertex(c1, ObjectKind::kDirectory);
  p.add_vertex(c2, ObjectKind::kDirectory);
  p.add_edge(root, dir_old, EdgeKind::kDirent);
  p.add_edge(dir_new, root, EdgeKind::kLinkEa);
  p.add_edge(dir_new, c1, EdgeKind::kDirent);
  p.add_edge(dir_new, c2, EdgeKind::kDirent);
  p.add_edge(c1, dir_old, EdgeKind::kLinkEa);
  p.add_edge(c2, dir_old, EdgeKind::kLinkEa);
  const PartialGraph partials[] = {p};
  const UnifiedGraph g = UnifiedGraph::aggregate(partials);
  DetectorConfig config;
  config.root = root;
  FaultyRankConfig rank_config;
  rank_config.epsilon = 1e-3;
  const DetectionReport report =
      detect_inconsistencies(g, run_faultyrank(g, rank_config), config);

  std::size_t overwrite_actions = 0;
  for (const auto& action : report.repair_plan()) {
    if (action.kind == RepairKind::kOverwriteId) {
      EXPECT_EQ(action.target, dir_new);
      EXPECT_EQ(action.value, dir_old);
      ++overwrite_actions;
    }
  }
  EXPECT_EQ(overwrite_actions, 1u);
}

TEST(DetectorTest, RepairPlanCollapsesWritesAndDropsReattachedQuarantines) {
  const Fid a{1, 1, 0}, b{1, 2, 0}, c{1, 3, 0}, d{1, 4, 0}, orphan{1, 5, 0};
  const auto finding = [](RepairAction repair) {
    Finding f;
    f.repair = std::move(repair);
    return f;
  };
  DetectionReport report;
  report.findings = {
      finding({RepairKind::kOverwriteId, a, b}),
      // Same id overwrite: its stale and edge_kind do not name a slot.
      finding({RepairKind::kOverwriteId, a, b, c, EdgeKind::kLinkEa}),
      finding({RepairKind::kRelinkProperty, c, d, a, EdgeKind::kLinkEa}),
      // Differs only in the stale reference: a second write.
      finding({RepairKind::kRelinkProperty, c, d, b, EdgeKind::kLinkEa}),
      finding({RepairKind::kRelinkProperty, c, d, a, EdgeKind::kLinkEa}),
      finding({}),
      // d is re-attached by the relinks above, so it stays out of
      // lost+found; the orphan goes there once.
      finding({RepairKind::kQuarantineLostFound, d}),
      finding({RepairKind::kQuarantineLostFound, orphan}),
      finding({RepairKind::kQuarantineLostFound, orphan, kNullFid, kNullFid,
               EdgeKind::kDirent}),
  };
  const RepairPlan plan = report.repair_plan();
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0], report.findings[0].repair);
  EXPECT_EQ(plan[1], report.findings[2].repair);
  EXPECT_EQ(plan[2], report.findings[3].repair);
  EXPECT_EQ(plan[3], report.findings[7].repair);
}

TEST(DetectorTest, ThresholdZeroConvictsNothingOnAmbiguousGraph) {
  // A graph with no decisive structural signal: a↔root paired, a→b
  // unanswered, while b points at a phantom endorsed by *two* objects
  // (so neither the wishful-pointer nor the absent-property rule
  // applies). With θ=0 the rank gate can never convict either — every
  // record must stay undetermined.
  const Fid root{1, 100, 0}, a{1, 1, 0}, b{2, 1, 0}, c{2, 2, 0}, p{9, 9, 0};
  PartialGraph partial;
  partial.server = "mds0";
  partial.add_vertex(root, ObjectKind::kDirectory);
  partial.add_vertex(a, ObjectKind::kFile);
  partial.add_vertex(b, ObjectKind::kStripeObject);
  partial.add_vertex(c, ObjectKind::kStripeObject);
  partial.add_edge(root, a, EdgeKind::kDirent);
  partial.add_edge(a, root, EdgeKind::kLinkEa);
  partial.add_edge(a, b, EdgeKind::kLovEa);
  partial.add_edge(b, p, EdgeKind::kObjParent);
  partial.add_edge(c, p, EdgeKind::kObjParent);
  const PartialGraph partials[] = {partial};
  const UnifiedGraph g = UnifiedGraph::aggregate(partials);

  FaultyRankConfig rank_config;
  rank_config.epsilon = 1e-3;
  DetectorConfig config;
  config.threshold = 0.0;
  config.root = root;
  const DetectionReport report =
      detect_inconsistencies(g, run_faultyrank(g, rank_config), config);
  EXPECT_FALSE(report.findings.empty());
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.culprit, FaultyField::kUndetermined) << f.note;
  }
}

}  // namespace
}  // namespace faultyrank
