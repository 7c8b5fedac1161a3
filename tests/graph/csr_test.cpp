#include "graph/csr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>
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
  // offsets: 3 u64, targets: 1 u32, kinds: 1 u8.
  EXPECT_EQ(csr.bytes(), 3 * 8 + 4 + 1u);
}

// ---- The one builder, against the counting sort it replaced ----------

/// The counting-sort build Csr::build ran before CsrBuilder existed,
/// kept as the oracle: count per source, place through a cursor array,
/// sort each list by (target, kind).
struct OracleCsr {
  std::vector<std::uint64_t> offsets;
  std::vector<Gid> targets;
  std::vector<EdgeKind> kinds;
};

OracleCsr counting_sort_oracle(std::size_t vertex_count,
                               const std::vector<GidEdge>& edges) {
  OracleCsr csr;
  csr.offsets.assign(vertex_count + 1, 0);
  for (const auto& e : edges) ++csr.offsets[e.src + 1];
  std::partial_sum(csr.offsets.begin(), csr.offsets.end(),
                   csr.offsets.begin());
  csr.targets.resize(edges.size());
  csr.kinds.resize(edges.size());
  std::vector<std::uint64_t> cursor(csr.offsets.begin(),
                                    csr.offsets.end() - 1);
  for (const auto& e : edges) {
    const std::uint64_t slot = cursor[e.src]++;
    csr.targets[slot] = e.dst;
    csr.kinds[slot] = e.kind;
  }
  std::vector<std::pair<Gid, EdgeKind>> scratch;
  for (std::size_t v = 0; v < vertex_count; ++v) {
    const auto begin = csr.offsets[v];
    const auto end = csr.offsets[v + 1];
    scratch.clear();
    for (auto slot = begin; slot < end; ++slot) {
      scratch.emplace_back(csr.targets[slot], csr.kinds[slot]);
    }
    std::sort(scratch.begin(), scratch.end());
    for (std::uint64_t i = 0; i < scratch.size(); ++i) {
      csr.targets[begin + i] = scratch[i].first;
      csr.kinds[begin + i] = scratch[i].second;
    }
  }
  return csr;
}

void expect_matches_oracle(const Csr& csr, const OracleCsr& want) {
  ASSERT_EQ(csr.vertex_count() + 1, want.offsets.size());
  ASSERT_EQ(csr.edge_count(), want.targets.size());
  for (std::size_t v = 0; v < want.offsets.size(); ++v) {
    ASSERT_EQ(csr.offsets()[v], want.offsets[v]) << "vertex " << v;
  }
  for (std::uint64_t slot = 0; slot < want.targets.size(); ++slot) {
    ASSERT_EQ(csr.target(slot), want.targets[slot]) << "slot " << slot;
    ASSERT_EQ(csr.kind(slot), want.kinds[slot]) << "slot " << slot;
  }
  // Exact capacities: (n + 1) offsets, E targets and E kinds.
  EXPECT_EQ(csr.bytes(), want.offsets.size() * 8 + want.targets.size() * 5);
}

/// Edges as a scan emits them: every source's edges together, sources
/// ascending, each list in arbitrary (target, kind) order with repeats.
/// Degrees run from 0 to past the builder's short-list sort.
std::vector<GidEdge> scan_order_edges(Rng& rng, std::size_t n) {
  std::vector<GidEdge> edges;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t degree =
        rng.below(8) == 0 ? 17 + rng.below(40) : rng.below(6);
    for (std::uint64_t i = 0; i < degree; ++i) {
      edges.push_back({static_cast<Gid>(v), static_cast<Gid>(rng.below(n)),
                       static_cast<EdgeKind>(rng.below(5))});
      if (rng.below(10) == 0) edges.push_back(edges.back());
    }
  }
  return edges;
}

/// Scan order with a few sources stepped back: runs of edges from a
/// source already passed (a duplicate FID's second inode) spliced in,
/// and one edge from the last vertex (a phantom, whose GID is past every
/// scanned one) early on, after which its run stays ahead.
std::vector<GidEdge> stepped_back_edges(Rng& rng, std::size_t n) {
  std::vector<GidEdge> edges = scan_order_edges(rng, n);
  if (edges.empty()) return edges;
  for (int splice = 0; splice < 3; ++splice) {
    const std::size_t at = 1 + rng.below(edges.size());
    const Gid passed = edges[rng.below(at)].src;
    std::vector<GidEdge> dup;
    for (std::uint64_t i = 0, k = 1 + rng.below(6); i < k; ++i) {
      dup.push_back({passed, static_cast<Gid>(rng.below(n)),
                     static_cast<EdgeKind>(rng.below(5))});
    }
    edges.insert(edges.begin() + static_cast<std::ptrdiff_t>(at), dup.begin(),
                 dup.end());
  }
  const std::size_t at = rng.below(edges.size() / 2 + 1);
  edges.insert(edges.begin() + static_cast<std::ptrdiff_t>(at),
               GidEdge{static_cast<Gid>(n - 1), 0, EdgeKind::kLinkEa});
  return edges;
}

class CsrBuilderPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrBuilderPropertyTest, MatchesCountingSortInEveryOrder) {
  Rng rng(GetParam());
  const std::size_t n = 1 + rng.below(300);
  const std::vector<GidEdge> in_order = scan_order_edges(rng, n);
  std::vector<GidEdge> shuffled = in_order;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  const std::vector<GidEdge> stepped = stepped_back_edges(rng, n);
  const std::pair<const char*, const std::vector<GidEdge>*> shapes[] = {
      {"scan order", &in_order},
      {"shuffled", &shuffled},
      {"stepped back", &stepped}};
  for (const auto& [shape, edges] : shapes) {
    SCOPED_TRACE(shape);
    const OracleCsr want = counting_sort_oracle(n, *edges);
    expect_matches_oracle(Csr::build(n, *edges), want);
    // Fed directly, with a vertex hint short of n and one past it, and
    // no room reserved for late edges: the same CSR, capacities exact.
    for (const std::size_t hint : {std::size_t{0}, n / 2, 2 * n}) {
      CsrBuilder builder(hint, edges->size());
      for (const GidEdge& e : *edges) builder.add(e.src, e.dst, e.kind);
      expect_matches_oracle(std::move(builder).finish(n), want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomEdgeLists, CsrBuilderPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(CsrBuilderTest, OutOfRangeEndpointsThrow) {
  const std::vector<GidEdge> bad_target = {{0, 1, EdgeKind::kDirent},
                                           {1, 3, EdgeKind::kDirent}};
  EXPECT_THROW(Csr::build(3, bad_target), std::out_of_range);
  const std::vector<GidEdge> bad_source = {{3, 0, EdgeKind::kDirent}};
  EXPECT_THROW(Csr::build(3, bad_source), std::out_of_range);
  // A source at or past the vertex count fails finish(), in order or
  // behind it.
  CsrBuilder ahead(3, 2);
  ahead.add(1, 0, EdgeKind::kDirent);
  ahead.add(5, 0, EdgeKind::kDirent);
  EXPECT_THROW((void)std::move(ahead).finish(3), std::out_of_range);
  CsrBuilder behind(3, 2);
  behind.add(7, 0, EdgeKind::kDirent);
  behind.add(4, 0, EdgeKind::kDirent);
  EXPECT_THROW((void)std::move(behind).finish(5), std::out_of_range);
}

TEST(CsrBuilderTest, EdgeCountMustMatchTheDeclaredOne) {
  CsrBuilder more(2, 1);
  more.add(0, 1, EdgeKind::kDirent);
  EXPECT_THROW(more.add(1, 0, EdgeKind::kLinkEa), std::length_error);
  CsrBuilder fewer(2, 2);
  fewer.add(0, 1, EdgeKind::kDirent);
  EXPECT_THROW((void)std::move(fewer).finish(2), std::logic_error);
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
