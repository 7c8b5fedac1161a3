// Graph equality for tests that build one graph two ways: every column
// and array a consumer reads must match, slot for slot.
#pragma once

#include <gtest/gtest.h>

#include "graph/unified_graph.h"

namespace faultyrank::testing {

/// Asserts byte-for-byte equality of everything downstream consumers
/// read: vertex table columns, forward + reverse CSR, pairing flags,
/// in-degree splits, and the unpaired-edge list in its exact order.
inline void expect_identical(const UnifiedGraph& expected,
                             const UnifiedGraph& actual) {
  ASSERT_EQ(expected.vertex_count(), actual.vertex_count());
  ASSERT_EQ(expected.edge_count(), actual.edge_count());

  const std::size_t n = expected.vertex_count();
  for (Gid v = 0; v < n; ++v) {
    ASSERT_EQ(expected.vertices().fid_of(v), actual.vertices().fid_of(v))
        << "gid " << v;
    ASSERT_EQ(expected.vertices().kind_of(v), actual.vertices().kind_of(v))
        << "gid " << v;
    ASSERT_EQ(expected.vertices().scan_count(v),
              actual.vertices().scan_count(v))
        << "gid " << v;
    ASSERT_EQ(expected.paired_in_degree(v), actual.paired_in_degree(v))
        << "gid " << v;
    ASSERT_EQ(expected.unpaired_in_degree(v), actual.unpaired_in_degree(v))
        << "gid " << v;
  }

  const auto compare_csr = [&](const Csr& want, const Csr& got,
                               const char* which) {
    ASSERT_EQ(want.vertex_count(), got.vertex_count()) << which;
    ASSERT_EQ(want.edge_count(), got.edge_count()) << which;
    for (Gid v = 0; v < want.vertex_count(); ++v) {
      ASSERT_EQ(want.edges_begin(v), got.edges_begin(v)) << which << " " << v;
      ASSERT_EQ(want.edges_end(v), got.edges_end(v)) << which << " " << v;
      for (auto slot = want.edges_begin(v); slot < want.edges_end(v); ++slot) {
        ASSERT_EQ(want.target(slot), got.target(slot))
            << which << " slot " << slot;
        ASSERT_EQ(want.kind(slot), got.kind(slot)) << which << " slot " << slot;
      }
    }
  };
  compare_csr(expected.forward(), actual.forward(), "forward");
  compare_csr(expected.reverse(), actual.reverse(), "reverse");

  for (std::uint64_t slot = 0; slot < expected.edge_count(); ++slot) {
    ASSERT_EQ(expected.paired(slot), actual.paired(slot)) << "slot " << slot;
  }
  ASSERT_EQ(expected.unpaired_edges(), actual.unpaired_edges());
}

}  // namespace faultyrank::testing
