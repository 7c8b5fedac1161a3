#include "graph/partial_graph.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"
#include "scanner/scanner.h"
#include "workload/namespace_gen.h"

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

// Offset of the vertex count: magic, version, then the server name
// with its 4-byte length.
std::size_t vertex_count_at(const PartialGraph& g) {
  return 4 + 4 + 4 + g.server.size();
}

// Offset of the edge count: past the vertex count and the vertex
// records.
std::size_t edge_count_at(const PartialGraph& g) {
  return vertex_count_at(g) + 8 + g.vertices.size() * 17;
}

void write_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
               std::uint64_t value) {
  std::memcpy(bytes.data() + at, &value, sizeof value);
}

PartialGraph three_by_three() {
  PartialGraph g = sample_graph();
  g.add_vertex(Fid{0x100010002, 3, 0}, ObjectKind::kStripeObject);
  g.add_edge(Fid{0x100010002, 3, 0}, Fid{0x200000400, 12, 0},
             EdgeKind::kObjParent);
  return g;
}

TEST(PartialGraphTest, VertexCountFillingTheRestLeavesNoEdgeCount) {
  // The vertex records end the buffer exactly: the count passes its
  // bound (count x 17 == bytes left), and the edge count has no bytes.
  PartialGraph g = sample_graph();
  g.edges.clear();
  auto bytes = g.serialize();
  bytes.resize(bytes.size() - 8);
  ASSERT_EQ(bytes.size(), vertex_count_at(g) + 8 + 2 * 17);
  EXPECT_THROW(PartialGraph::deserialize(bytes), SerdesError);
}

TEST(PartialGraphTest, EdgeCountOneRecordShortThrows) {
  const PartialGraph g = three_by_three();
  // The count claims one more record than follows ...
  auto claims_more = g.serialize();
  write_u64(claims_more, edge_count_at(g), 4);
  EXPECT_THROW(PartialGraph::deserialize(claims_more), SerdesError);
  // ... or the last record is cut off under an honest count.
  auto cut = g.serialize();
  cut.resize(cut.size() - 33);
  EXPECT_THROW(PartialGraph::deserialize(cut), SerdesError);
  // A record cut by a single byte.
  auto cut_one = g.serialize();
  cut_one.pop_back();
  EXPECT_THROW(PartialGraph::deserialize(cut_one), SerdesError);
}

TEST(PartialGraphTest, ImpossibleKindInTheLastRecordOfEachArrayThrows) {
  const PartialGraph g = three_by_three();
  const auto bytes = g.serialize();
  const std::size_t last_vertex_kind = edge_count_at(g) - 1;
  const std::size_t last_edge_kind = bytes.size() - 1;
  ASSERT_EQ(bytes[last_vertex_kind],
            static_cast<std::uint8_t>(ObjectKind::kStripeObject));
  ASSERT_EQ(bytes[last_edge_kind],
            static_cast<std::uint8_t>(EdgeKind::kObjParent));
  for (const std::size_t at : {last_vertex_kind, last_edge_kind}) {
    auto hostile = bytes;
    hostile[at] = 0xff;
    EXPECT_THROW(PartialGraph::deserialize(hostile), SerdesError) << at;
  }
}

TEST(PartialGraphTest, CountsWhoseRecordBytesWouldWrapThrow) {
  // count x 33 (or x 17) overflows 64 bits to a few bytes; the bound
  // divides instead of multiplying, so the count is still refused.
  const PartialGraph g = three_by_three();
  constexpr std::uint64_t kEdgeWrap = UINT64_MAX / 33 + 1;
  constexpr std::uint64_t kVertexWrap = UINT64_MAX / 17 + 1;
  static_assert(kEdgeWrap * 33 < 64 && kVertexWrap * 17 < 64);
  auto edges = g.serialize();
  write_u64(edges, edge_count_at(g), kEdgeWrap);
  EXPECT_THROW(PartialGraph::deserialize(edges), SerdesError);
  auto vertices = g.serialize();
  write_u64(vertices, vertex_count_at(g), kVertexWrap);
  EXPECT_THROW(PartialGraph::deserialize(vertices), SerdesError);
}

TEST(PartialGraphTest, WireBytesMatchesSerializedSizeOnRandomPartials) {
  // serialize() reserves wire_bytes() and writes exactly that much:
  // empty and long server names, and arrays of 0 records included.
  Rng rng(17);
  for (int round = 0; round < 60; ++round) {
    PartialGraph g;
    switch (round % 3) {
      case 0: g.server = ""; break;
      case 1: g.server = std::string(300 + rng.below(5000), 's'); break;
      default: g.server = "oss" + std::to_string(round); break;
    }
    const std::uint64_t vertices = round % 4 == 0 ? 0 : rng.below(50);
    const std::uint64_t edges = round % 5 == 0 ? 0 : rng.below(80);
    const auto fid = [&] {
      return Fid{rng(), static_cast<std::uint32_t>(rng()),
                 static_cast<std::uint32_t>(rng())};
    };
    for (std::uint64_t i = 0; i < vertices; ++i) {
      g.add_vertex(fid(), static_cast<ObjectKind>(rng.below(5)));
    }
    for (std::uint64_t i = 0; i < edges; ++i) {
      g.add_edge(fid(), fid(), static_cast<EdgeKind>(rng.below(5)));
    }
    const std::vector<std::uint8_t> bytes = g.serialize();
    EXPECT_EQ(g.wire_bytes(), bytes.size()) << round;
    EXPECT_EQ(bytes.capacity(), bytes.size()) << round;
    const PartialGraph decoded = PartialGraph::deserialize(bytes);
    EXPECT_EQ(decoded.server, g.server);
    EXPECT_EQ(decoded.vertices, g.vertices);
    EXPECT_EQ(decoded.edges, g.edges);
  }
}

// ---- The validated view: the one place the wire is checked ----------

/// The SerdesError message `read` throws, or "" if it succeeds.
template <typename Read>
std::string serdes_error(Read&& read) {
  try {
    read();
  } catch (const SerdesError& e) {
    return e.what();
  }
  return "";
}

/// The view and deserialize() accept and reject exactly the same
/// buffers, with the same message.
void expect_same_verdict(const std::vector<std::uint8_t>& bytes,
                         const std::string& why) {
  const std::string by_view =
      serdes_error([&] { (void)PartialGraphView::of(bytes); });
  const std::string by_copy =
      serdes_error([&] { (void)PartialGraph::deserialize(bytes); });
  EXPECT_EQ(by_view, by_copy) << why;
}

TEST(PartialGraphViewTest, ReadsTheRecordsDeserializeCopies) {
  for (const PartialGraph& g : {sample_graph(), three_by_three()}) {
    const std::vector<std::uint8_t> bytes = g.serialize();
    const PartialGraphView view = PartialGraphView::of(bytes);
    EXPECT_EQ(view.server(), g.server);
    ASSERT_EQ(view.vertex_count(), g.vertices.size());
    ASSERT_EQ(view.edge_count(), g.edges.size());
    std::vector<VertexRecord> vertices;
    view.for_each_vertex([&](const VertexRecord& v) { vertices.push_back(v); });
    std::vector<FidEdge> edges;
    view.for_each_edge([&](const FidEdge& e) { edges.push_back(e); });
    EXPECT_EQ(vertices, g.vertices);
    EXPECT_EQ(edges, g.edges);
  }
}

TEST(PartialGraphViewTest, RejectsEveryBadBufferAsDeserializeDoes) {
  const PartialGraph g = three_by_three();
  const std::vector<std::uint8_t> bytes = g.serialize();
  // Every hostile prefix: the encoding cut at each length.
  for (std::size_t size = 0; size < bytes.size(); ++size) {
    const std::vector<std::uint8_t> prefix(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(size));
    EXPECT_NE(serdes_error([&] { (void)PartialGraphView::of(prefix); }), "")
        << size;
    expect_same_verdict(prefix, "prefix of " + std::to_string(size));
  }
  // Magic and version.
  for (const std::size_t at : {std::size_t{0}, std::size_t{4}}) {
    auto hostile = bytes;
    hostile[at] ^= 0xff;
    expect_same_verdict(hostile, "header byte " + std::to_string(at));
  }
  // Impossible kind bytes: every vertex and edge record, and a kind
  // byte that is bad together with trailing bytes (the kind is reported
  // first, as deserialize always did).
  const std::size_t vertices_at = vertex_count_at(g) + 8;
  const std::size_t edges_at = edge_count_at(g) + 8;
  std::vector<std::size_t> kind_bytes;
  for (std::size_t i = 0; i < g.vertices.size(); ++i) {
    kind_bytes.push_back(vertices_at + i * 17 + 16);
  }
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    kind_bytes.push_back(edges_at + i * 33 + 32);
  }
  for (const std::size_t at : kind_bytes) {
    for (const int kind : {5, 0xff}) {
      auto hostile = bytes;
      hostile[at] = static_cast<std::uint8_t>(kind);
      EXPECT_NE(serdes_error([&] { (void)PartialGraphView::of(hostile); }),
                "");
      expect_same_verdict(hostile, "kind byte at " + std::to_string(at));
      hostile.push_back(0);
      EXPECT_NE(serdes_error([&] { (void)PartialGraphView::of(hostile); })
                    .find("impossible"),
                std::string::npos);
      expect_same_verdict(hostile, "kind byte and trailing byte");
    }
  }
  // Trailing bytes, counts that claim too much, counts that wrap.
  auto trailing = bytes;
  trailing.push_back(0);
  expect_same_verdict(trailing, "trailing byte");
  for (const std::uint64_t count :
       {std::uint64_t{4}, UINT64_MAX / 33 + 1, UINT64_MAX}) {
    auto claims = bytes;
    write_u64(claims, edge_count_at(g), count);
    expect_same_verdict(claims, "edge count " + std::to_string(count));
    auto vertex_claims = bytes;
    write_u64(vertex_claims, vertex_count_at(g), count);
    expect_same_verdict(vertex_claims,
                        "vertex count " + std::to_string(count));
  }
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// FNV-1a 64 of serialize() for every partial of a fixed 2-MDT, 4-OST
// populated cluster, recorded with the writer that appended each field
// by vector::insert. The writer that puts at a cursor into reserved
// storage must reproduce them byte for byte: FRPG v1 is unchanged.
//
// Regenerating: only a deliberate change of the FRPG wire format (with
// its kVersion bump) may move these. Such a change fails here and
// prints the table it computed; paste that table over kFrpgDigests and
// say in the commit why the bytes changed.
struct FrpgDigest {
  const char* server;
  std::uint64_t digest;
};

// clang-format off
const FrpgDigest kFrpgDigests[] = {
    {"mds0", 0xa8cb55e78470e12bULL},
    {"mds1", 0x2ebf8473918bfc2cULL},
    {"oss0", 0xb818e17a10adeed4ULL},
    {"oss1", 0xe7eee289fd1af823ULL},
    {"oss2", 0xe01268a995178412ULL},
    {"oss3", 0xa64c8c0df6c97553ULL},
};
// clang-format on

TEST(PartialGraphTest, SerializedBytesMatchRecordedDigests) {
  LustreCluster cluster(4, StripePolicy{64 * 1024, -1}, 2);
  NamespaceConfig config;
  config.file_count = 400;
  config.seed = 11;
  populate_namespace(cluster, config);
  const ClusterScan scan = scan_cluster(cluster);

  std::vector<FrpgDigest> got;
  std::string table;
  for (const ScanResult& result : scan.results) {
    got.push_back({result.graph.server.c_str(),
                   fnv1a(result.graph.serialize())});
    char line[96];
    std::snprintf(line, sizeof line, "    {\"%s\", 0x%016" PRIx64 "ULL},\n",
                  got.back().server, got.back().digest);
    table += line;
  }
  ASSERT_EQ(got.size(), std::size(kFrpgDigests)) << table;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_STREQ(got[i].server, kFrpgDigests[i].server) << table;
    EXPECT_EQ(got[i].digest, kFrpgDigests[i].digest) << table;
  }
}

}  // namespace
}  // namespace faultyrank
