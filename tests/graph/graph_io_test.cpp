#include "graph/graph_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

namespace faultyrank {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(GraphIoTest, RoundTrip) {
  const std::string path = temp_path("roundtrip.el");
  const std::vector<GidEdge> edges = {
      {0, 1, EdgeKind::kGeneric},
      {1, 2, EdgeKind::kGeneric},
      {2, 0, EdgeKind::kGeneric},
  };
  write_edge_list(path, 3, edges);
  const EdgeListFile loaded = read_edge_list(path);
  EXPECT_EQ(loaded.vertex_count, 3u);
  ASSERT_EQ(loaded.edges.size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(loaded.edges[i].src, edges[i].src);
    EXPECT_EQ(loaded.edges[i].dst, edges[i].dst);
  }
  std::remove(path.c_str());
}

TEST(GraphIoTest, EmptyEdgeList) {
  const std::string path = temp_path("empty.el");
  write_edge_list(path, 10, {});
  const EdgeListFile loaded = read_edge_list(path);
  EXPECT_EQ(loaded.vertex_count, 10u);
  EXPECT_TRUE(loaded.edges.empty());
  std::remove(path.c_str());
}

TEST(GraphIoTest, MissingFileThrows) {
  EXPECT_THROW(read_edge_list(temp_path("does_not_exist.el")),
               std::runtime_error);
}

TEST(GraphIoTest, TruncatedFileThrows) {
  const std::string path = temp_path("truncated.el");
  write_edge_list(path, 3, {{0, 1, EdgeKind::kGeneric}});
  // Truncate the edge payload.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 4), 0);
  EXPECT_THROW(read_edge_list(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(GraphIoTest, UnwritablePathThrows) {
  EXPECT_THROW(write_edge_list("/nonexistent_dir/x.el", 1, {}),
               std::runtime_error);
}

}  // namespace
}  // namespace faultyrank
