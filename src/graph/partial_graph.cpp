#include "graph/partial_graph.h"

namespace faultyrank {

namespace {
constexpr std::uint32_t kMagic = 0x46525047;  // "FRPG"
constexpr std::uint32_t kVersion = 1;
// Wire record sizes: a Fid is 16 B, a kind 1 B.
constexpr std::size_t kVertexRecordBytes = 16 + 1;
constexpr std::size_t kEdgeRecordBytes = 16 + 16 + 1;
}  // namespace

std::uint64_t PartialGraph::wire_bytes() const noexcept {
  // header + server string + counted records.
  return 4 + 4 + 4 + server.size() + 8 +
         vertices.size() * kVertexRecordBytes + 8 +
         edges.size() * kEdgeRecordBytes;
}

std::vector<std::uint8_t> PartialGraph::serialize() const {
  ByteWriter w;
  w.reserve(wire_bytes());
  w.put(kMagic);
  w.put(kVersion);
  w.put_string(server);
  w.put(static_cast<std::uint64_t>(vertices.size()));
  for (const auto& v : vertices) {
    w.put(v.fid.seq);
    w.put(v.fid.oid);
    w.put(v.fid.ver);
    w.put(static_cast<std::uint8_t>(v.kind));
  }
  w.put(static_cast<std::uint64_t>(edges.size()));
  for (const auto& e : edges) {
    w.put(e.src.seq);
    w.put(e.src.oid);
    w.put(e.src.ver);
    w.put(e.dst.seq);
    w.put(e.dst.oid);
    w.put(e.dst.ver);
    w.put(static_cast<std::uint8_t>(e.kind));
  }
  return w.take();
}

PartialGraph PartialGraph::deserialize(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const PartialGraphView view = PartialGraphView::read(r);
  PartialGraph g;
  g.server = view.server();
  g.vertices.reserve(view.vertex_count());
  view.for_each_vertex(
      [&g](const VertexRecord& v) { g.vertices.push_back(v); });
  g.edges.reserve(view.edge_count());
  view.for_each_edge([&g](const FidEdge& e) { g.edges.push_back(e); });
  return g;
}

PartialGraphView PartialGraphView::read(ByteReader& r) {
  if (r.get<std::uint32_t>() != kMagic) {
    throw SerdesError("partial graph: bad magic");
  }
  if (r.get<std::uint32_t>() != kVersion) {
    throw SerdesError("partial graph: unsupported version");
  }
  PartialGraphView view;
  view.server_ = r.get_string();
  // Counts are bounded by the remaining bytes, so a corrupted length
  // field throws instead of sizing anything from it. That bound is the
  // one check each run needs: its records are then read through a
  // RecordReader with no check per field, once here to check every kind
  // byte and again by each reader of the view.
  view.vertex_count_ = r.bounded_count(r.get<std::uint64_t>(),
                                       kVertexRecordBytes);
  view.vertex_run_ = r.records(view.vertex_count_, kVertexRecordBytes);
  RecordReader vertices = view.vertex_run_;
  for (std::uint64_t i = 0; i < view.vertex_count_; ++i) {
    read_vertex(vertices);
  }
  view.edge_count_ = r.bounded_count(r.get<std::uint64_t>(),
                                     kEdgeRecordBytes);
  view.edge_run_ = r.records(view.edge_count_, kEdgeRecordBytes);
  RecordReader edges = view.edge_run_;
  for (std::uint64_t i = 0; i < view.edge_count_; ++i) {
    read_edge(edges);
  }
  if (!r.exhausted()) throw SerdesError("partial graph: trailing bytes");
  return view;
}

PartialGraphView PartialGraphView::of(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  return read(r);
}

}  // namespace faultyrank
