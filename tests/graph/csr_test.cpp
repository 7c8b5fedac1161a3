#include "graph/csr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "testing/fixtures.h"

namespace faultyrank {
namespace {

TEST(CsrTest, EmptyGraph) {
  const Csr csr = Csr::build(0, {});
  EXPECT_EQ(csr.vertex_count(), 0u);
  EXPECT_EQ(csr.edge_count(), 0u);
}

TEST(CsrTest, VerticesWithoutEdges) {
  const Csr csr = Csr::build(5, {});
  EXPECT_EQ(csr.vertex_count(), 5u);
  for (Gid v = 0; v < 5; ++v) EXPECT_EQ(csr.out_degree(v), 0u);
}

TEST(CsrTest, SmallKnownGraph) {
  const std::vector<GidEdge> edges = {
      {0, 1, EdgeKind::kDirent},
      {0, 2, EdgeKind::kDirent},
      {1, 0, EdgeKind::kLinkEa},
      {2, 0, EdgeKind::kLinkEa},
  };
  const Csr csr = Csr::build(3, edges);
  EXPECT_EQ(csr.edge_count(), 4u);
  EXPECT_EQ(csr.out_degree(0), 2u);
  EXPECT_EQ(csr.out_degree(1), 1u);
  EXPECT_EQ(csr.out_degree(2), 1u);
  EXPECT_TRUE(csr.has_edge(0, 1));
  EXPECT_TRUE(csr.has_edge(0, 2));
  EXPECT_FALSE(csr.has_edge(1, 2));
  EXPECT_TRUE(csr.has_edge(0, 1, EdgeKind::kDirent));
  EXPECT_FALSE(csr.has_edge(0, 1, EdgeKind::kLovEa));
}

TEST(CsrTest, AdjacencyIsSortedByTarget) {
  const std::vector<GidEdge> edges = {
      {0, 3, EdgeKind::kGeneric},
      {0, 1, EdgeKind::kGeneric},
      {0, 2, EdgeKind::kGeneric},
  };
  const Csr csr = Csr::build(4, edges);
  std::vector<Gid> targets;
  for (auto slot = csr.edges_begin(0); slot < csr.edges_end(0); ++slot) {
    targets.push_back(csr.target(slot));
  }
  EXPECT_TRUE(std::is_sorted(targets.begin(), targets.end()));
}

TEST(CsrTest, MultiEdgesAreKept) {
  const std::vector<GidEdge> edges = {
      {0, 1, EdgeKind::kDirent},
      {0, 1, EdgeKind::kDirent},
      {0, 1, EdgeKind::kLovEa},
  };
  const Csr csr = Csr::build(2, edges);
  EXPECT_EQ(csr.edge_count(), 3u);
  EXPECT_EQ(csr.edge_multiplicity(0, 1), 3u);
  EXPECT_EQ(csr.edge_multiplicity(1, 0), 0u);
}

TEST(CsrTest, OutOfRangeEndpointThrows) {
  const std::vector<GidEdge> edges = {{0, 7, EdgeKind::kGeneric}};
  EXPECT_THROW(Csr::build(3, edges), std::out_of_range);
}

TEST(CsrTest, ReversedSwapsDirections) {
  const std::vector<GidEdge> edges = {
      {0, 1, EdgeKind::kDirent},
      {2, 1, EdgeKind::kLovEa},
  };
  const Csr csr = Csr::build(3, edges);
  const Csr rev = csr.reversed();
  EXPECT_EQ(rev.edge_count(), 2u);
  EXPECT_TRUE(rev.has_edge(1, 0, EdgeKind::kDirent));
  EXPECT_TRUE(rev.has_edge(1, 2, EdgeKind::kLovEa));
  EXPECT_FALSE(rev.has_edge(0, 1));
}

TEST(CsrTest, DoubleReverseIsIdentity) {
  Rng rng(99);
  std::vector<GidEdge> edges;
  constexpr std::size_t kN = 200;
  for (int i = 0; i < 2000; ++i) {
    edges.push_back({static_cast<Gid>(rng.below(kN)),
                     static_cast<Gid>(rng.below(kN)), EdgeKind::kGeneric});
  }
  const Csr csr = Csr::build(kN, edges);
  const Csr back = csr.reversed().reversed();
  ASSERT_EQ(back.edge_count(), csr.edge_count());
  for (Gid v = 0; v < kN; ++v) {
    ASSERT_EQ(back.out_degree(v), csr.out_degree(v));
    for (auto slot = csr.edges_begin(v); slot < csr.edges_end(v); ++slot) {
      EXPECT_EQ(back.target(slot), csr.target(slot));
    }
  }
}

TEST(CsrTest, BytesAccountsForAllArrays) {
  const std::vector<GidEdge> edges = {{0, 1, EdgeKind::kGeneric}};
  const Csr csr = Csr::build(2, edges);
  // offsets: 3 u64, targets: 1 u32, kinds: 1 u8 — capacity may exceed.
  EXPECT_GE(csr.bytes(), 3 * 8 + 4 + 1u);
}

// Property sweep: degree sums and offsets invariants on random graphs.
class CsrPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrPropertyTest, StructuralInvariantsHold) {
  Rng rng(GetParam());
  const std::size_t n = 1 + rng.below(500);
  const std::size_t m = rng.below(4000);
  std::vector<GidEdge> edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    edges.push_back({static_cast<Gid>(rng.below(n)),
                     static_cast<Gid>(rng.below(n)), EdgeKind::kGeneric});
  }
  const Csr csr = Csr::build(n, edges);
  ASSERT_EQ(csr.vertex_count(), n);
  ASSERT_EQ(csr.edge_count(), m);

  std::uint64_t degree_sum = 0;
  for (Gid v = 0; v < n; ++v) {
    EXPECT_LE(csr.edges_begin(v), csr.edges_end(v));
    degree_sum += csr.out_degree(v);
  }
  EXPECT_EQ(degree_sum, m);

  // Every input edge must be findable.
  for (const auto& e : edges) {
    EXPECT_TRUE(csr.has_edge(e.src, e.dst));
  }
  // Reversal preserves edge count and transposes membership.
  const Csr rev = csr.reversed();
  EXPECT_EQ(rev.edge_count(), m);
  for (int i = 0; i < 50 && i < static_cast<int>(edges.size()); ++i) {
    EXPECT_TRUE(rev.has_edge(edges[i].dst, edges[i].src));
  }
}

TEST_P(CsrPropertyTest, ReversedEqualsBuildOfSwappedEdges) {
  // Few vertices, many edges: self-loops, repeated edges and one pair
  // under several kinds, so the transpose must reproduce (target, kind)
  // order without sorting.
  Rng rng(GetParam());
  const std::size_t n = 1 + rng.below(40);
  const std::vector<GidEdge> edges =
      testing::make_random_multigraph(GetParam(), n, rng.below(1500));
  std::vector<GidEdge> swapped;
  swapped.reserve(edges.size());
  for (const auto& e : edges) swapped.push_back({e.dst, e.src, e.kind});

  const Csr rev = Csr::build(n, edges).reversed();
  const Csr want = Csr::build(n, swapped);
  ASSERT_EQ(rev.vertex_count(), want.vertex_count());
  ASSERT_EQ(rev.edge_count(), want.edge_count());
  for (Gid v = 0; v <= n; ++v) {
    ASSERT_EQ(rev.offsets()[v], want.offsets()[v]) << "vertex " << v;
  }
  for (std::uint64_t slot = 0; slot < want.edge_count(); ++slot) {
    ASSERT_EQ(rev.target(slot), want.target(slot)) << "slot " << slot;
    ASSERT_EQ(rev.kind(slot), want.kind(slot)) << "slot " << slot;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, CsrPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace faultyrank
