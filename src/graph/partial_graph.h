// Partial metadata graphs — the scanner's output.
//
// Each scanner walks one server's local image and emits (a) the set of
// objects it saw, keyed by FID, and (b) the directed edges extracted
// from their metadata properties. Partial graphs are serialized, shipped
// to the MDS aggregator in one bulk transfer, and merged into the
// unified graph (paper §IV-A/B). The merge reads a shipped partial in
// place, through a PartialGraphView over its bytes, without decoding it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/fid.h"
#include "common/serdes.h"
#include "graph/types.h"

namespace faultyrank {

/// One scanned object: it exists on disk with this FID and kind.
struct VertexRecord {
  Fid fid;
  ObjectKind kind = ObjectKind::kPhantom;

  friend bool operator==(const VertexRecord&, const VertexRecord&) = default;
};

/// One directed reference extracted from a metadata property.
struct FidEdge {
  Fid src;
  Fid dst;
  EdgeKind kind = EdgeKind::kGeneric;

  friend bool operator==(const FidEdge&, const FidEdge&) = default;
};

/// The per-server scan result.
struct PartialGraph {
  std::string server;  ///< e.g. "mds0", "oss3"
  std::vector<VertexRecord> vertices;
  std::vector<FidEdge> edges;

  void add_vertex(Fid fid, ObjectKind kind) { vertices.push_back({fid, kind}); }
  void add_edge(Fid src, Fid dst, EdgeKind kind) {
    edges.push_back({src, dst, kind});
  }

  /// Wire size of the serialized form (what the aggregator's network
  /// model charges for the bulk transfer).
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept;

  /// Encodes FRPG v1: magic, version, server name, then the counted
  /// vertex records (17 B each) and edge records (33 B each).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// A PartialGraphView of `bytes`, copied out.
  [[nodiscard]] static PartialGraph deserialize(
      const std::vector<std::uint8_t>& bytes);
};

/// A validated view of one whole FRPG v1 encoding. read() checks every
/// wire rule once — magic, version, counts against the bytes left,
/// every kind byte, no trailing bytes — and throws SerdesError on the
/// first fault, so this is the one place those checks and messages
/// live. The view's records are then read in place, where the bytes
/// lie, each through the same RecordReader helper read() checked them
/// with. The bytes must outlive the view.
class PartialGraphView {
 public:
  /// Validates `r`'s remaining bytes as one whole encoding.
  [[nodiscard]] static PartialGraphView read(ByteReader& r);
  /// Validates `bytes` as one whole encoding.
  [[nodiscard]] static PartialGraphView of(std::span<const std::uint8_t> bytes);

  [[nodiscard]] const std::string& server() const noexcept { return server_; }
  [[nodiscard]] std::uint64_t vertex_count() const noexcept {
    return vertex_count_;
  }
  [[nodiscard]] std::uint64_t edge_count() const noexcept {
    return edge_count_;
  }

  /// Calls fn(const VertexRecord&) for each vertex record, in wire order.
  template <typename Fn>
  void for_each_vertex(Fn&& fn) const {
    RecordReader run = vertex_run_;
    for (std::uint64_t i = 0; i < vertex_count_; ++i) fn(read_vertex(run));
  }
  /// Calls fn(const FidEdge&) for each edge record, in wire order.
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    RecordReader run = edge_run_;
    for (std::uint64_t i = 0; i < edge_count_; ++i) fn(read_edge(run));
  }

 private:
  PartialGraphView() = default;

  /// One 17-byte vertex record; throws SerdesError on a kind byte no
  /// ObjectKind has.
  static VertexRecord read_vertex(RecordReader& run);
  /// One 33-byte edge record; throws SerdesError on a kind byte no
  /// EdgeKind has.
  static FidEdge read_edge(RecordReader& run);

  std::string server_;
  std::uint64_t vertex_count_ = 0;
  std::uint64_t edge_count_ = 0;
  RecordReader vertex_run_;
  RecordReader edge_run_;
};

inline VertexRecord PartialGraphView::read_vertex(RecordReader& run) {
  VertexRecord v;
  v.fid.seq = run.get<std::uint64_t>();
  v.fid.oid = run.get<std::uint32_t>();
  v.fid.ver = run.get<std::uint32_t>();
  const auto kind = run.get<std::uint8_t>();
  if (kind > static_cast<std::uint8_t>(ObjectKind::kOther)) {
    throw SerdesError("partial graph: impossible vertex kind byte " +
                      std::to_string(kind));
  }
  v.kind = static_cast<ObjectKind>(kind);
  return v;
}

inline FidEdge PartialGraphView::read_edge(RecordReader& run) {
  FidEdge e;
  e.src.seq = run.get<std::uint64_t>();
  e.src.oid = run.get<std::uint32_t>();
  e.src.ver = run.get<std::uint32_t>();
  e.dst.seq = run.get<std::uint64_t>();
  e.dst.oid = run.get<std::uint32_t>();
  e.dst.ver = run.get<std::uint32_t>();
  const auto kind = run.get<std::uint8_t>();
  if (kind > static_cast<std::uint8_t>(EdgeKind::kGeneric)) {
    throw SerdesError("partial graph: impossible edge kind byte " +
                      std::to_string(kind));
  }
  e.kind = static_cast<EdgeKind>(kind);
  return e;
}

}  // namespace faultyrank
