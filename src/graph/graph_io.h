// Edge-list file persistence.
//
// Table IV's "Graph Building" column includes reading the edge-list
// file from local storage and building the CSR in DRAM; these helpers
// provide that on-disk leg. Binary format: u64 vertex_count, u64
// edge_count, then (u32 src, u32 dst) pairs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.h"

namespace faultyrank {

struct EdgeListFile {
  std::uint64_t vertex_count = 0;
  std::vector<GidEdge> edges;
};

/// Writes a dense edge list; throws std::runtime_error on I/O failure.
void write_edge_list(const std::string& path, std::uint64_t vertex_count,
                     const std::vector<GidEdge>& edges);

/// Reads a file written by write_edge_list.
[[nodiscard]] EdgeListFile read_edge_list(const std::string& path);

}  // namespace faultyrank
