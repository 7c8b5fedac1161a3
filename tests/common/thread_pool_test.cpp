#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace faultyrank {
namespace {

TEST(ThreadPoolTest, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ChunkIndicesAreDistinct) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> chunk_used(4);
  pool.parallel_for(4000,
                    [&](std::size_t, std::size_t, std::size_t chunk) {
                      chunk_used[chunk].fetch_add(1);
                    });
  int total = 0;
  for (auto& c : chunk_used) total += c.load();
  EXPECT_EQ(total, 4);
  for (auto& c : chunk_used) EXPECT_LE(c.load(), 1);
}

TEST(ThreadPoolTest, WaitIdleWithNoWorkReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int batch = 0; batch < 10; ++batch) {
    pool.parallel_for(100, [&](std::size_t begin, std::size_t end,
                               std::size_t) {
      long local = 0;
      for (std::size_t i = begin; i < end; ++i) {
        local += static_cast<long>(i);
      }
      sum.fetch_add(local);
    });
  }
  EXPECT_EQ(sum.load(), 10L * (99L * 100L / 2));
}

TEST(ParallelForRangesTest, CoversEveryIndexWithGivenBoundaries) {
  ThreadPool pool(3);
  const std::vector<std::size_t> bounds = {0, 7, 7, 64, 100};
  std::vector<int> hits(100, 0);
  std::vector<std::size_t> chunk_of(100, 99);
  pool.parallel_for_ranges(bounds, [&](std::size_t begin, std::size_t end,
                                       std::size_t chunk) {
    for (std::size_t i = begin; i < end; ++i) {
      ++hits[i];
      chunk_of[i] = chunk;
    }
  });
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(hits[i], 1) << i;
  }
  // Chunk indices follow the boundary list (empty range 7..7 skipped).
  EXPECT_EQ(chunk_of[0], 0u);
  EXPECT_EQ(chunk_of[7], 2u);
  EXPECT_EQ(chunk_of[64], 3u);
}

TEST(ParallelForRangesTest, DegenerateBoundariesAreNoops) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for_ranges({}, [&](std::size_t, std::size_t, std::size_t) {
    ran = true;
  });
  const std::vector<std::size_t> single = {5};
  pool.parallel_for_ranges(single,
                           [&](std::size_t, std::size_t, std::size_t) {
                             ran = true;
                           });
  EXPECT_FALSE(ran);
}

TEST(ParallelForRangesTest, RepeatedForksCoverEveryIndexExactlyOnce) {
  // The rank kernel forks over the same boundary list every sweep of
  // every iteration; each fork must cover every index once and keep the
  // range indices of the boundary list.
  ThreadPool pool(3);
  const std::vector<std::size_t> bounds = {0, 7, 7, 64, 100, 128};
  std::vector<std::atomic<int>> hits(128);
  std::vector<std::size_t> chunk_of(128, 99);
  for (int round = 0; round < 4; ++round) {
    pool.parallel_for_ranges(
        bounds, [&](std::size_t begin, std::size_t end, std::size_t chunk) {
          for (std::size_t i = begin; i < end; ++i) {
            hits[i].fetch_add(1);
            chunk_of[i] = chunk;
          }
        });
  }
  for (std::size_t i = 0; i < 128; ++i) {
    ASSERT_EQ(hits[i].load(), 4) << "index " << i;
  }
  EXPECT_EQ(chunk_of[0], 0u);
  EXPECT_EQ(chunk_of[7], 2u);
  EXPECT_EQ(chunk_of[100], 4u);
}

TEST(ParallelForRangesTest, MoreRangesThanWorkers) {
  ThreadPool pool(2);
  std::vector<std::size_t> bounds;
  for (std::size_t i = 0; i <= 9; ++i) bounds.push_back(i * 10);
  std::vector<std::atomic<int>> hits(90);
  pool.parallel_for_ranges(
      bounds, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ParallelForRangesTest, NestedInsideWorkerDoesNotDeadlock) {
  // Every worker runs an outer range that forks an inner batch while
  // the other worker is busy too — the group-waiter steal path must run
  // the inner ranges on the waiting threads.
  ThreadPool pool(2);
  const std::vector<std::size_t> outer = {0, 1, 2};
  std::atomic<int> inner_hits{0};
  pool.parallel_for_ranges(outer, [&](std::size_t, std::size_t,
                                      std::size_t) {
    const std::vector<std::size_t> inner = {0, 5, 10, 15, 20};
    pool.parallel_for_ranges(
        inner, [&](std::size_t begin, std::size_t end, std::size_t) {
          inner_hits.fetch_add(static_cast<int>(end - begin));
        });
  });
  EXPECT_EQ(inner_hits.load(), 40);
}

TEST(ParallelForRangesTest, PropagatesExceptions) {
  ThreadPool pool(2);
  const std::vector<std::size_t> bounds = {0, 10, 20, 30};
  EXPECT_THROW(pool.parallel_for_ranges(
                   bounds,
                   [&](std::size_t begin, std::size_t, std::size_t) {
                     if (begin == 10) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(PartitionByWeightTest, UniformWeightsSplitEvenly) {
  // prefix of 8 vertices, 1 unit each.
  const std::vector<std::uint64_t> prefix = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  const auto bounds = partition_by_weight(prefix, 4);
  EXPECT_EQ(bounds, (std::vector<std::size_t>{0, 2, 4, 6, 8}));
}

// Star graph: one hub of degree d followed by d spokes of degree 1.
// Total weight 2d over 4 chunks → mean d/2; the indivisible hub chunk
// carries exactly d = 2× the mean, and no chunk may exceed that.
TEST(PartitionByWeightTest, StarGraphChunksStayWithinTwiceMeanEdgeLoad) {
  constexpr std::uint64_t d = 1000;
  std::vector<std::uint64_t> prefix;
  prefix.push_back(0);
  prefix.push_back(d);  // hub
  for (std::uint64_t v = 0; v < d; ++v) prefix.push_back(d + v + 1);

  constexpr std::size_t chunks = 4;
  const auto bounds = partition_by_weight(prefix, chunks);
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), prefix.size() - 1);

  const double mean =
      static_cast<double>(prefix.back()) / static_cast<double>(chunks);
  for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
    const auto load = prefix[bounds[c + 1]] - prefix[bounds[c]];
    EXPECT_LE(static_cast<double>(load), 2.0 * mean)
        << "chunk " << c << " [" << bounds[c] << ", " << bounds[c + 1] << ")";
  }
  // A vertex-count split would give the first chunk (hub + ~250 spokes)
  // ~62% of all edges; the weighted split must do strictly better.
  const auto first_load = prefix[bounds[1]] - prefix[bounds[0]];
  EXPECT_LT(first_load, d + d / 4);
}

TEST(PartitionByWeightTest, BoundariesRespectAlignment) {
  // 10000 vertices, skewed: vertex 0 owns half the edges.
  std::vector<std::uint64_t> prefix(10001);
  prefix[0] = 0;
  prefix[1] = 10000;
  for (std::size_t v = 2; v <= 10000; ++v) prefix[v] = prefix[v - 1] + 2;
  const std::size_t align = 1024;
  const auto bounds = partition_by_weight(prefix, 8, align);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 10000u);
  for (std::size_t c = 1; c + 1 < bounds.size(); ++c) {
    EXPECT_EQ(bounds[c] % align, 0u) << "boundary " << c;
  }
  // Strictly increasing — duplicates must have been dropped.
  for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
    EXPECT_LT(bounds[c], bounds[c + 1]);
  }
}

TEST(PartitionByWeightTest, EdgeCases) {
  EXPECT_EQ(partition_by_weight({}, 4), (std::vector<std::size_t>{0}));
  const std::vector<std::uint64_t> empty_graph = {0, 0, 0, 0};
  EXPECT_EQ(partition_by_weight(empty_graph, 4),
            (std::vector<std::size_t>{0, 3}));
  const std::vector<std::uint64_t> one_chunk = {0, 5, 9};
  EXPECT_EQ(partition_by_weight(one_chunk, 1),
            (std::vector<std::size_t>{0, 2}));
}

}  // namespace
}  // namespace faultyrank
