#include "graph/unified_graph.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace faultyrank {

UnifiedGraph UnifiedGraph::aggregate(std::span<const PartialGraph> partials,
                                     ThreadPool* pool) {
  UnifiedGraph g;
  std::uint64_t total_vertices = 0;
  std::uint64_t total_edges = 0;
  for (const auto& partial : partials) {
    total_vertices += partial.vertices.size();
    total_edges += partial.edges.size();
  }

  g.vertices_.reserve(total_vertices);
  for (const auto& partial : partials) {
    for (const auto& vertex : partial.vertices) {
      g.vertices_.intern_scanned(vertex.fid, vertex.kind);
    }
  }
  std::vector<GidEdge> edges;
  edges.reserve(total_edges);
  for (const auto& partial : partials) {
    for (const auto& e : partial.edges) {
      const Gid src = g.vertices_.intern_referenced(e.src);
      const Gid dst = g.vertices_.intern_referenced(e.dst);
      edges.push_back({src, dst, e.kind});
    }
  }
  g.finalize(std::move(edges), pool);
  return g;
}

UnifiedGraph UnifiedGraph::from_edges(std::size_t vertex_count,
                                      std::span<const GidEdge> edges,
                                      ThreadPool* pool) {
  UnifiedGraph g;
  g.vertices_.reserve(vertex_count);
  for (std::size_t v = 0; v < vertex_count; ++v) {
    // Synthesize FIDs so bench graphs flow through the same machinery.
    g.vertices_.intern_scanned(
        Fid{/*seq=*/1, /*oid=*/static_cast<std::uint32_t>(v), /*ver=*/0},
        ObjectKind::kOther);
  }
  g.finalize(std::vector<GidEdge>(edges.begin(), edges.end()), pool);
  return g;
}

void UnifiedGraph::finalize(std::vector<GidEdge> edges, ThreadPool* pool) {
  forward_ = Csr::build(vertices_.size(), edges);
  reverse_ = forward_.reversed();

  const std::size_t n = vertices_.size();
  forward_paired_.assign(forward_.edge_count(), 0);
  in_paired_.assign(n, 0);
  in_unpaired_.assign(n, 0);
  unpaired_.clear();

  if (pool == nullptr || pool->size() <= 1 || n == 0) {
    for (Gid u = 0; u < n; ++u) {
      for (auto slot = forward_.edges_begin(u); slot < forward_.edges_end(u);
           ++slot) {
        const Gid v = forward_.target(slot);
        const bool is_paired = forward_.has_edge(v, u);
        forward_paired_[slot] = is_paired ? 1 : 0;
        if (is_paired) {
          ++in_paired_[v];
        } else {
          ++in_unpaired_[v];
          unpaired_.push_back({u, v, forward_.kind(slot)});
        }
      }
    }
    return;
  }

  // Pass A (parallel over source-vertex ranges): pairing flags land in
  // disjoint slot ranges; unpaired edges collect into per-chunk buffers
  // whose concatenation in chunk order reproduces the serial (src-Gid,
  // slot) ordering exactly.
  std::vector<std::vector<UnpairedEdge>> chunk_unpaired(
      std::min(n, pool->size()));
  pool->parallel_for(
      n, [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        auto& local = chunk_unpaired[chunk];
        for (Gid u = static_cast<Gid>(begin); u < end; ++u) {
          for (auto slot = forward_.edges_begin(u);
               slot < forward_.edges_end(u); ++slot) {
            const Gid v = forward_.target(slot);
            const bool is_paired = forward_.has_edge(v, u);
            forward_paired_[slot] = is_paired ? 1 : 0;
            if (!is_paired) local.push_back({u, v, forward_.kind(slot)});
          }
        }
      });
  std::size_t unpaired_total = 0;
  for (const auto& local : chunk_unpaired) unpaired_total += local.size();
  unpaired_.reserve(unpaired_total);
  for (const auto& local : chunk_unpaired) {
    unpaired_.insert(unpaired_.end(), local.begin(), local.end());
  }

  // Pass B (parallel over target-vertex ranges): each in-edge u→v of v
  // is re-tested with the same predicate the serial loop used
  // (has_edge(v, u)), so the per-vertex counts are race-free and
  // identical to the serial scatter.
  pool->parallel_for(n,
                     [&](std::size_t begin, std::size_t end, std::size_t) {
                       for (Gid v = static_cast<Gid>(begin); v < end; ++v) {
                         std::uint32_t paired = 0;
                         std::uint32_t unpaired = 0;
                         for (auto slot = reverse_.edges_begin(v);
                              slot < reverse_.edges_end(v); ++slot) {
                           const Gid u = reverse_.target(slot);
                           if (forward_.has_edge(v, u)) {
                             ++paired;
                           } else {
                             ++unpaired;
                           }
                         }
                         in_paired_[v] = paired;
                         in_unpaired_[v] = unpaired;
                       }
                     });
}

std::uint64_t UnifiedGraph::bytes() const {
  return vertices_.bytes() + forward_.bytes() + reverse_.bytes() +
         forward_paired_.capacity() +
         in_paired_.capacity() * sizeof(std::uint32_t) +
         in_unpaired_.capacity() * sizeof(std::uint32_t) +
         unpaired_.capacity() * sizeof(UnpairedEdge);
}

}  // namespace faultyrank
