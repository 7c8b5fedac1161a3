#include "graph/unified_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "faults/injector.h"
#include "scanner/scanner.h"
#include "testing/fixtures.h"
#include "testing/graph_equal.h"

namespace faultyrank {
namespace {

using testing::Fig3Fids;
using testing::make_fig3_consistent_graph;
using testing::make_fig3_graph;

TEST(UnifiedGraphTest, AggregatesFig3Example) {
  const UnifiedGraph g = make_fig3_graph();
  EXPECT_EQ(g.vertex_count(), 4u);
  EXPECT_EQ(g.edge_count(), 4u);
}

TEST(UnifiedGraphTest, PairingOnFig3Example) {
  const UnifiedGraph g = make_fig3_graph();
  const Fig3Fids fids;
  const Gid a = g.vertices().lookup(fids.a);
  const Gid b = g.vertices().lookup(fids.b);
  const Gid c = g.vertices().lookup(fids.c);
  const Gid d = g.vertices().lookup(fids.d);
  ASSERT_NE(a, kInvalidGid);
  ASSERT_NE(d, kInvalidGid);

  // a↔b paired both ways; a→c unpaired; d→b unpaired.
  EXPECT_EQ(g.paired_in_degree(b), 1u);   // from a (paired)
  EXPECT_EQ(g.unpaired_in_degree(b), 1u); // from d
  EXPECT_EQ(g.paired_in_degree(a), 1u);   // from b
  EXPECT_EQ(g.unpaired_in_degree(a), 0u);
  EXPECT_EQ(g.paired_in_degree(c), 0u);
  EXPECT_EQ(g.unpaired_in_degree(c), 1u); // from a
  EXPECT_EQ(g.paired_in_degree(d), 0u);
  EXPECT_EQ(g.unpaired_in_degree(d), 0u);

  ASSERT_EQ(g.unpaired_edges().size(), 2u);
}

TEST(UnifiedGraphTest, ConsistentGraphHasNoUnpairedEdges) {
  const UnifiedGraph g = make_fig3_consistent_graph();
  EXPECT_TRUE(g.unpaired_edges().empty());
  for (Gid v = 0; v < g.vertex_count(); ++v) {
    EXPECT_EQ(g.unpaired_in_degree(v), 0u);
  }
}

TEST(UnifiedGraphTest, EdgeToUnknownFidCreatesPhantom) {
  PartialGraph p;
  p.server = "mds0";
  p.add_vertex(Fid{1, 1, 0}, ObjectKind::kFile);
  p.add_edge(Fid{1, 1, 0}, Fid{9, 9, 0}, EdgeKind::kLovEa);
  const PartialGraph partials[] = {p};
  const UnifiedGraph g = UnifiedGraph::aggregate(partials);
  EXPECT_EQ(g.vertex_count(), 2u);
  const Gid phantom = g.vertices().lookup(Fid{9, 9, 0});
  ASSERT_NE(phantom, kInvalidGid);
  EXPECT_FALSE(g.vertices().is_scanned(phantom));
  EXPECT_EQ(g.vertices().kind_of(phantom), ObjectKind::kPhantom);
  ASSERT_EQ(g.unpaired_edges().size(), 1u);
  EXPECT_EQ(g.unpaired_edges()[0].dst, phantom);
}

TEST(UnifiedGraphTest, MergeAcrossServersDeduplicatesByFid) {
  PartialGraph mds;
  mds.server = "mds0";
  mds.add_vertex(Fid{1, 1, 0}, ObjectKind::kFile);
  mds.add_edge(Fid{1, 1, 0}, Fid{2, 1, 0}, EdgeKind::kLovEa);
  PartialGraph oss;
  oss.server = "oss0";
  oss.add_vertex(Fid{2, 1, 0}, ObjectKind::kStripeObject);
  oss.add_edge(Fid{2, 1, 0}, Fid{1, 1, 0}, EdgeKind::kObjParent);
  const PartialGraph partials[] = {mds, oss};
  const UnifiedGraph g = UnifiedGraph::aggregate(partials);
  EXPECT_EQ(g.vertex_count(), 2u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.unpaired_edges().empty());
}

TEST(UnifiedGraphTest, FromEdgesBuildsGenericGraph) {
  const std::vector<GidEdge> edges = {
      {0, 1, EdgeKind::kGeneric},
      {1, 0, EdgeKind::kGeneric},
      {1, 2, EdgeKind::kGeneric},
  };
  const UnifiedGraph g = UnifiedGraph::from_edges(3, edges);
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 3u);
  ASSERT_EQ(g.unpaired_edges().size(), 1u);
  EXPECT_EQ(g.unpaired_edges()[0].src, 1u);
  EXPECT_EQ(g.unpaired_edges()[0].dst, 2u);
}

TEST(UnifiedGraphTest, ReverseGraphTransposesForward) {
  const UnifiedGraph g = make_fig3_graph();
  const Csr& fwd = g.forward();
  const Csr& rev = g.reverse();
  EXPECT_EQ(fwd.edge_count(), rev.edge_count());
  for (Gid u = 0; u < g.vertex_count(); ++u) {
    for (auto slot = fwd.edges_begin(u); slot < fwd.edges_end(u); ++slot) {
      EXPECT_TRUE(rev.has_edge(fwd.target(slot), u, fwd.kind(slot)));
    }
  }
}

TEST(UnifiedGraphTest, AggregationOrderIsDeterministic) {
  const UnifiedGraph g1 = make_fig3_graph();
  const UnifiedGraph g2 = make_fig3_graph();
  ASSERT_EQ(g1.vertex_count(), g2.vertex_count());
  for (Gid v = 0; v < g1.vertex_count(); ++v) {
    EXPECT_EQ(g1.vertices().fid_of(v), g2.vertices().fid_of(v));
  }
}

TEST(UnifiedGraphTest, BytesIsNonZeroForNonEmptyGraph) {
  EXPECT_GT(make_fig3_graph().bytes(), 0u);
}

// ---- Merging shipped partials in place, from their FRPG bytes --------

/// Random partials with every interning wrinkle: FIDs from three dense
/// sequences plus versioned and far-out ones (index overflow), FIDs
/// scanned twice (within and across partials), scan-order edges from
/// each scanned vertex, and edges from and to FIDs nobody scanned.
std::vector<PartialGraph> random_partials(std::uint64_t seed) {
  Rng rng(seed);
  const auto fid = [&rng] {
    const std::uint64_t seq = 0x200000400 + rng.below(3);
    switch (rng.below(8)) {
      case 0:
        return Fid{seq, static_cast<std::uint32_t>(rng()), 0};
      case 1:
        return Fid{seq, static_cast<std::uint32_t>(rng.below(200)), 1};
      default:
        return Fid{seq, static_cast<std::uint32_t>(rng.below(200)), 0};
    }
  };
  const auto edge_kind = [&rng] { return static_cast<EdgeKind>(rng.below(5)); };
  std::vector<PartialGraph> partials(1 + rng.below(4));
  for (std::size_t p = 0; p < partials.size(); ++p) {
    PartialGraph& g = partials[p];
    g.server = (p == 0 ? "mds" : "oss") + std::to_string(p);
    for (std::uint64_t i = 0, k = rng.below(120); i < k; ++i) {
      g.add_vertex(fid(), static_cast<ObjectKind>(rng.below(5)));
    }
    for (std::size_t i = 0; i < g.vertices.size(); ++i) {
      for (std::uint64_t j = 0, k = rng.below(5); j < k; ++j) {
        g.add_edge(g.vertices[i].fid, fid(), edge_kind());
      }
      if (rng.below(20) == 0) g.add_edge(fid(), fid(), edge_kind());
    }
  }
  return partials;
}

/// Merges `partials` as the aggregator does: the first (and any named
/// local) read where it lies, every other one through a view of its
/// FRPG bytes; and again from decoded copies. Both must be the same
/// graph.
void expect_bytes_merge_equals_copies_merge(
    const std::vector<PartialGraph>& partials,
    const std::vector<bool>& local) {
  std::vector<std::vector<std::uint8_t>> wire(partials.size());
  for (std::size_t i = 0; i < partials.size(); ++i) {
    if (!local[i]) wire[i] = partials[i].serialize();
  }
  std::vector<PartialSource> sources;
  std::vector<PartialGraph> decoded;
  for (std::size_t i = 0; i < partials.size(); ++i) {
    if (local[i]) {
      sources.emplace_back(&partials[i]);
      decoded.push_back(partials[i]);
    } else {
      sources.emplace_back(PartialGraphView::of(wire[i]));
      decoded.push_back(PartialGraph::deserialize(wire[i]));
    }
  }
  testing::expect_identical(UnifiedGraph::aggregate(decoded),
                            UnifiedGraph::aggregate(sources));
}

TEST(UnifiedGraphTest, MergingRandomPartialsFromBytesEqualsMergingCopies) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<PartialGraph> partials = random_partials(seed);
    std::vector<bool> local(partials.size(), false);
    local[0] = true;
    expect_bytes_merge_equals_copies_merge(partials, local);
  }
}

TEST(UnifiedGraphTest, MergingTwoMdtClusterFromBytesEqualsMergingCopies) {
  LustreCluster cluster(4, StripePolicy{64 * 1024, -1}, 2);
  NamespaceConfig config;
  config.file_count = 400;
  config.seed = 11;
  populate_namespace(cluster, config);
  FaultInjector injector(cluster, 12);
  injector.inject_campaign(6);  // duplicate ids, dangling ids, phantoms
  const ClusterScan scan = scan_cluster(cluster);
  std::vector<PartialGraph> partials;
  std::vector<bool> local;
  for (const ScanResult& result : scan.results) {
    partials.push_back(result.graph);
    local.push_back(result.local_to_mds);
  }
  // Only mds0's partial is local; mds1's crosses the wire as an OSS's.
  ASSERT_EQ(std::count(local.begin(), local.end(), true), 1);
  expect_bytes_merge_equals_copies_merge(partials, local);
}

}  // namespace
}  // namespace faultyrank
