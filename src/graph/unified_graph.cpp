#include "graph/unified_graph.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"

namespace faultyrank {

namespace {

/// Calls fn(const VertexRecord&) for each of a source's vertex records.
template <typename Fn>
void for_each_vertex(const PartialSource& source, Fn&& fn) {
  if (const auto* graph = std::get_if<const PartialGraph*>(&source)) {
    for (const VertexRecord& vertex : (*graph)->vertices) fn(vertex);
  } else {
    std::get<PartialGraphView>(source).for_each_vertex(fn);
  }
}

/// Calls fn(const FidEdge&) for each of a source's edge records.
template <typename Fn>
void for_each_edge(const PartialSource& source, Fn&& fn) {
  if (const auto* graph = std::get_if<const PartialGraph*>(&source)) {
    for (const FidEdge& edge : (*graph)->edges) fn(edge);
  } else {
    std::get<PartialGraphView>(source).for_each_edge(fn);
  }
}

std::uint64_t vertex_records(const PartialSource& source) {
  const auto* graph = std::get_if<const PartialGraph*>(&source);
  return graph != nullptr ? (*graph)->vertices.size()
                          : std::get<PartialGraphView>(source).vertex_count();
}

std::uint64_t edge_records(const PartialSource& source) {
  const auto* graph = std::get_if<const PartialGraph*>(&source);
  return graph != nullptr ? (*graph)->edges.size()
                          : std::get<PartialGraphView>(source).edge_count();
}

}  // namespace

UnifiedGraph UnifiedGraph::aggregate(std::span<const PartialSource> partials,
                                     ThreadPool* pool) {
  UnifiedGraph g;
  std::uint64_t total_vertices = 0;
  std::uint64_t total_edges = 0;
  for (const PartialSource& partial : partials) {
    total_vertices += vertex_records(partial);
    total_edges += edge_records(partial);
    for_each_vertex(partial, [&g](const VertexRecord& vertex) {
      g.vertices_.count_scanned(vertex.fid);
    });
  }
  g.vertices_.size_runs(total_vertices);

  for (const PartialSource& partial : partials) {
    for_each_vertex(partial, [&g](const VertexRecord& vertex) {
      g.vertices_.intern_scanned(vertex.fid, vertex.kind);
    });
  }
  // Scanned vertices hold GIDs in scan order, so scan-order edges reach
  // the builder with sources in order, and it writes them in place.
  CsrBuilder forward(total_vertices, total_edges);
  for (const PartialSource& partial : partials) {
    for_each_edge(partial, [&g, &forward](const FidEdge& e) {
      const Gid src = g.vertices_.intern_referenced(e.src);
      const Gid dst = g.vertices_.intern_referenced(e.dst);
      forward.add(src, dst, e.kind);
    });
  }
  g.forward_ = std::move(forward).finish(g.vertices_.size());
  g.pair_edges(pool);
  return g;
}

UnifiedGraph UnifiedGraph::aggregate(std::span<const PartialGraph> partials,
                                     ThreadPool* pool) {
  std::vector<PartialSource> sources;
  sources.reserve(partials.size());
  for (const PartialGraph& partial : partials) sources.emplace_back(&partial);
  return aggregate(sources, pool);
}

UnifiedGraph UnifiedGraph::from_edges(std::size_t vertex_count,
                                      std::span<const GidEdge> edges,
                                      ThreadPool* pool) {
  // Synthesize FIDs so bench graphs flow through the same machinery.
  const auto synthetic_fid = [](std::size_t v) {
    return Fid{/*seq=*/1, /*oid=*/static_cast<std::uint32_t>(v), /*ver=*/0};
  };
  UnifiedGraph g;
  for (std::size_t v = 0; v < vertex_count; ++v) {
    g.vertices_.count_scanned(synthetic_fid(v));
  }
  g.vertices_.size_runs(vertex_count);
  for (std::size_t v = 0; v < vertex_count; ++v) {
    g.vertices_.intern_scanned(synthetic_fid(v), ObjectKind::kOther);
  }
  g.forward_ = Csr::build(vertex_count, edges);
  g.pair_edges(pool);
  return g;
}

void UnifiedGraph::pair_edges(ThreadPool* pool) {
  reverse_ = forward_.reversed();

  const std::size_t n = vertices_.size();
  forward_paired_.assign(forward_.edge_count(), 0);
  in_paired_.assign(n, 0);
  unpaired_.clear();

  // An edge u→v is paired iff some v→u exists, i.e. iff v is among u's
  // in-neighbours. Both of u's lists are sorted by neighbour GID, so
  // one merge of them classifies u's out-edges (flags and unpaired
  // edges, in slot order) and u's in-edges (its paired in-degree). Each
  // vertex writes only its own slots and counters.
  const auto pair_vertices = [&](std::size_t begin, std::size_t end,
                                 std::vector<UnpairedEdge>& unpaired) {
    for (Gid u = static_cast<Gid>(begin); u < end; ++u) {
      auto out = forward_.edges_begin(u);
      const auto out_end = forward_.edges_end(u);
      auto in = reverse_.edges_begin(u);
      const auto in_end = reverse_.edges_end(u);
      std::uint32_t in_paired = 0;
      while (out < out_end) {
        const Gid v = forward_.target(out);
        while (in < in_end && reverse_.target(in) < v) ++in;
        const auto in_group = in;
        while (in < in_end && reverse_.target(in) == v) ++in;
        const bool is_paired = in != in_group;
        in_paired += static_cast<std::uint32_t>(in - in_group);
        for (; out < out_end && forward_.target(out) == v; ++out) {
          if (is_paired) {
            forward_paired_[out] = 1;
          } else {
            unpaired.push_back({u, v, forward_.kind(out)});
          }
        }
      }
      in_paired_[u] = in_paired;
    }
  };

  if (pool == nullptr || pool->size() <= 1 || n == 0) {
    pair_vertices(0, n, unpaired_);
    return;
  }
  // Per-chunk unpaired buffers, concatenated in chunk order, reproduce
  // the serial (src GID, slot) order exactly.
  std::vector<std::vector<UnpairedEdge>> chunk_unpaired(
      std::min(n, pool->size()));
  pool->parallel_for(
      n, [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        pair_vertices(begin, end, chunk_unpaired[chunk]);
      });
  std::size_t unpaired_total = 0;
  for (const auto& local : chunk_unpaired) unpaired_total += local.size();
  unpaired_.reserve(unpaired_total);
  for (const auto& local : chunk_unpaired) {
    unpaired_.insert(unpaired_.end(), local.begin(), local.end());
  }
}

std::uint64_t UnifiedGraph::bytes() const {
  return vertices_.bytes() + forward_.bytes() + reverse_.bytes() +
         forward_paired_.capacity() +
         in_paired_.capacity() * sizeof(std::uint32_t) +
         unpaired_.capacity() * sizeof(UnpairedEdge);
}

}  // namespace faultyrank
