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
  if (r.get<std::uint32_t>() != kMagic) {
    throw SerdesError("partial graph: bad magic");
  }
  if (r.get<std::uint32_t>() != kVersion) {
    throw SerdesError("partial graph: unsupported version");
  }
  PartialGraph g;
  g.server = r.get_string();
  // Counts are bounded by the remaining bytes, so a corrupted length
  // field throws instead of allocating gigabytes. That bound is the one
  // check each array needs: it is sized once and its records are read
  // through a RecordReader, with no check per field.
  const auto vertex_count = r.bounded_count(r.get<std::uint64_t>(),
                                            kVertexRecordBytes);
  g.vertices.resize(vertex_count);
  RecordReader vr = r.records(vertex_count, kVertexRecordBytes);
  for (VertexRecord& v : g.vertices) {
    v.fid.seq = vr.get<std::uint64_t>();
    v.fid.oid = vr.get<std::uint32_t>();
    v.fid.ver = vr.get<std::uint32_t>();
    const auto kind = vr.get<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(ObjectKind::kOther)) {
      throw SerdesError("partial graph: impossible vertex kind byte " +
                        std::to_string(kind));
    }
    v.kind = static_cast<ObjectKind>(kind);
  }
  const auto edge_count = r.bounded_count(r.get<std::uint64_t>(),
                                          kEdgeRecordBytes);
  g.edges.resize(edge_count);
  RecordReader er = r.records(edge_count, kEdgeRecordBytes);
  for (FidEdge& e : g.edges) {
    e.src.seq = er.get<std::uint64_t>();
    e.src.oid = er.get<std::uint32_t>();
    e.src.ver = er.get<std::uint32_t>();
    e.dst.seq = er.get<std::uint64_t>();
    e.dst.oid = er.get<std::uint32_t>();
    e.dst.ver = er.get<std::uint32_t>();
    const auto kind = er.get<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(EdgeKind::kGeneric)) {
      throw SerdesError("partial graph: impossible edge kind byte " +
                        std::to_string(kind));
    }
    e.kind = static_cast<EdgeKind>(kind);
  }
  if (!r.exhausted()) throw SerdesError("partial graph: trailing bytes");
  return g;
}

}  // namespace faultyrank
