#include "graph/partial_graph.h"

#include <gtest/gtest.h>

namespace faultyrank {
namespace {

PartialGraph sample_graph() {
  PartialGraph g;
  g.server = "oss2";
  g.add_vertex(Fid{0x100010002, 1, 0}, ObjectKind::kStripeObject);
  g.add_vertex(Fid{0x100010002, 2, 0}, ObjectKind::kStripeObject);
  g.add_edge(Fid{0x100010002, 1, 0}, Fid{0x200000400, 10, 0},
             EdgeKind::kObjParent);
  g.add_edge(Fid{0x100010002, 2, 0}, Fid{0x200000400, 11, 0},
             EdgeKind::kObjParent);
  return g;
}

TEST(PartialGraphTest, SerializeRoundTrip) {
  const PartialGraph original = sample_graph();
  const PartialGraph decoded =
      PartialGraph::deserialize(original.serialize());
  EXPECT_EQ(decoded.server, original.server);
  ASSERT_EQ(decoded.vertices.size(), original.vertices.size());
  ASSERT_EQ(decoded.edges.size(), original.edges.size());
  for (std::size_t i = 0; i < original.vertices.size(); ++i) {
    EXPECT_EQ(decoded.vertices[i], original.vertices[i]);
  }
  for (std::size_t i = 0; i < original.edges.size(); ++i) {
    EXPECT_EQ(decoded.edges[i], original.edges[i]);
  }
}

TEST(PartialGraphTest, EmptyGraphRoundTrip) {
  PartialGraph g;
  g.server = "mds0";
  const PartialGraph decoded = PartialGraph::deserialize(g.serialize());
  EXPECT_EQ(decoded.server, "mds0");
  EXPECT_TRUE(decoded.vertices.empty());
  EXPECT_TRUE(decoded.edges.empty());
}

TEST(PartialGraphTest, WireBytesMatchesSerializedSize) {
  const PartialGraph g = sample_graph();
  EXPECT_EQ(g.wire_bytes(), g.serialize().size());
}

TEST(PartialGraphTest, BadMagicThrows) {
  auto bytes = sample_graph().serialize();
  bytes[0] ^= 0xff;
  EXPECT_THROW(PartialGraph::deserialize(bytes), SerdesError);
}

TEST(PartialGraphTest, TruncationThrows) {
  auto bytes = sample_graph().serialize();
  bytes.resize(bytes.size() - 5);
  EXPECT_THROW(PartialGraph::deserialize(bytes), SerdesError);
}

TEST(PartialGraphTest, TrailingGarbageThrows) {
  auto bytes = sample_graph().serialize();
  bytes.push_back(0);
  EXPECT_THROW(PartialGraph::deserialize(bytes), SerdesError);
}

// The first vertex's kind byte follows the magic, the version, the
// 4-byte-prefixed server name "oss2", the vertex count and the vertex's
// 16-byte FID.
constexpr std::size_t kFirstVertexKind = 4 + 4 + (4 + 4) + 8 + 16;

TEST(PartialGraphTest, ImpossibleVertexKindThrows) {
  const auto bytes = sample_graph().serialize();
  ASSERT_EQ(bytes[kFirstVertexKind],
            static_cast<std::uint8_t>(ObjectKind::kStripeObject));
  auto hostile = bytes;
  hostile[kFirstVertexKind] = static_cast<std::uint8_t>(ObjectKind::kOther);
  EXPECT_EQ(PartialGraph::deserialize(hostile).vertices[0].kind,
            ObjectKind::kOther);
  for (const int kind : {5, 0xff}) {
    hostile[kFirstVertexKind] = static_cast<std::uint8_t>(kind);
    EXPECT_THROW(PartialGraph::deserialize(hostile), SerdesError) << kind;
  }
}

TEST(PartialGraphTest, ImpossibleEdgeKindThrows) {
  // A decoded edge kind indexes per-kind tables downstream (the rank
  // kernel's per-kind property ranks), so a byte past kGeneric must not
  // load. The last edge's kind byte ends the buffer.
  const auto bytes = sample_graph().serialize();
  ASSERT_EQ(bytes.back(), static_cast<std::uint8_t>(EdgeKind::kObjParent));
  auto hostile = bytes;
  hostile.back() = static_cast<std::uint8_t>(EdgeKind::kGeneric);
  EXPECT_EQ(PartialGraph::deserialize(hostile).edges.back().kind,
            EdgeKind::kGeneric);
  for (const int kind : {5, 0xff}) {
    hostile.back() = static_cast<std::uint8_t>(kind);
    EXPECT_THROW(PartialGraph::deserialize(hostile), SerdesError) << kind;
  }
}

}  // namespace
}  // namespace faultyrank
