#include "graph/partial_graph.h"

namespace faultyrank {

namespace {
constexpr std::uint32_t kMagic = 0x46525047;  // "FRPG"
constexpr std::uint32_t kVersion = 1;
}  // namespace

std::uint64_t PartialGraph::wire_bytes() const noexcept {
  // header + server string + counted records (Fid = 16B, kind = 1B).
  return 4 + 4 + 4 + server.size() + 8 + vertices.size() * 17 + 8 +
         edges.size() * 33;
}

std::vector<std::uint8_t> PartialGraph::serialize() const {
  ByteWriter w;
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
  // Counts are bounded by the remaining bytes (17 B per vertex record,
  // 33 B per edge record) so a corrupted length field throws instead of
  // reserving gigabytes.
  const auto vertex_count = r.bounded_count(r.get<std::uint64_t>(), 17);
  g.vertices.reserve(vertex_count);
  for (std::uint64_t i = 0; i < vertex_count; ++i) {
    VertexRecord v;
    v.fid.seq = r.get<std::uint64_t>();
    v.fid.oid = r.get<std::uint32_t>();
    v.fid.ver = r.get<std::uint32_t>();
    const auto kind = r.get<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(ObjectKind::kOther)) {
      throw SerdesError("partial graph: impossible vertex kind byte " +
                        std::to_string(kind));
    }
    v.kind = static_cast<ObjectKind>(kind);
    g.vertices.push_back(v);
  }
  const auto edge_count = r.bounded_count(r.get<std::uint64_t>(), 33);
  g.edges.reserve(edge_count);
  for (std::uint64_t i = 0; i < edge_count; ++i) {
    FidEdge e;
    e.src.seq = r.get<std::uint64_t>();
    e.src.oid = r.get<std::uint32_t>();
    e.src.ver = r.get<std::uint32_t>();
    e.dst.seq = r.get<std::uint64_t>();
    e.dst.oid = r.get<std::uint32_t>();
    e.dst.ver = r.get<std::uint32_t>();
    const auto kind = r.get<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(EdgeKind::kGeneric)) {
      throw SerdesError("partial graph: impossible edge kind byte " +
                        std::to_string(kind));
    }
    e.kind = static_cast<EdgeKind>(kind);
    g.edges.push_back(e);
  }
  if (!r.exhausted()) throw SerdesError("partial graph: trailing bytes");
  return g;
}

}  // namespace faultyrank
