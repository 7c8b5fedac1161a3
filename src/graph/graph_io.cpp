#include "graph/graph_io.h"

#include <cstdio>
#include <memory>
#include <stdexcept>

namespace faultyrank {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("edge list " + what + ": " + path);
}

}  // namespace

void write_edge_list(const std::string& path, std::uint64_t vertex_count,
                     const std::vector<GidEdge>& edges) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) fail("open for write failed", path);
  const std::uint64_t edge_count = edges.size();
  if (std::fwrite(&vertex_count, sizeof(vertex_count), 1, f.get()) != 1 ||
      std::fwrite(&edge_count, sizeof(edge_count), 1, f.get()) != 1) {
    fail("header write failed", path);
  }
  for (const auto& e : edges) {
    const std::uint32_t pair[2] = {e.src, e.dst};
    if (std::fwrite(pair, sizeof(pair), 1, f.get()) != 1) {
      fail("edge write failed", path);
    }
  }
}

EdgeListFile read_edge_list(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) fail("open for read failed", path);
  EdgeListFile result;
  std::uint64_t edge_count = 0;
  if (std::fread(&result.vertex_count, sizeof(result.vertex_count), 1,
                 f.get()) != 1 ||
      std::fread(&edge_count, sizeof(edge_count), 1, f.get()) != 1) {
    fail("header read failed", path);
  }
  // Bound the on-wire count against the actual file size before
  // allocating: a corrupt or hostile header must not demand memory the
  // payload cannot back (each edge is one 8-byte src/dst pair).
  const long header_end = std::ftell(f.get());
  if (header_end < 0 || std::fseek(f.get(), 0, SEEK_END) != 0) {
    fail("size probe failed", path);
  }
  const long file_end = std::ftell(f.get());
  if (file_end < 0 || std::fseek(f.get(), header_end, SEEK_SET) != 0) {
    fail("size probe failed", path);
  }
  const std::uint64_t payload_bytes =
      file_end > header_end ? static_cast<std::uint64_t>(file_end - header_end)
                            : 0;
  if (edge_count > payload_bytes / (2 * sizeof(std::uint32_t))) {
    fail("edge count exceeds file size (corrupt header)", path);
  }
  result.edges.resize(edge_count);
  for (auto& e : result.edges) {
    std::uint32_t pair[2];
    if (std::fread(pair, sizeof(pair), 1, f.get()) != 1) {
      fail("edge read failed (truncated)", path);
    }
    e = {pair[0], pair[1], EdgeKind::kGeneric};
  }
  return result;
}

}  // namespace faultyrank
