#include "graph/vertex_table.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "graph/partial_graph.h"

namespace faultyrank {
namespace {

constexpr std::uint64_t kMdsSeq = 0x200000400;
constexpr std::uint64_t kOstSeq = 0x100010000;

/// Sizes `table` as UnifiedGraph::aggregate does.
void size_for(VertexTable& table, const std::vector<PartialGraph>& partials) {
  std::size_t records = 0;
  for (const auto& partial : partials) {
    for (const auto& vertex : partial.vertices) {
      table.count_scanned(vertex.fid);
      ++records;
    }
  }
  table.size_runs(records);
}

/// Interns in aggregate order: every scanned record, then every edge.
void intern_all(VertexTable& table, const std::vector<PartialGraph>& partials) {
  for (const auto& partial : partials) {
    for (const auto& vertex : partial.vertices) {
      table.intern_scanned(vertex.fid, vertex.kind);
    }
  }
  for (const auto& partial : partials) {
    for (const auto& e : partial.edges) {
      table.intern_referenced(e.src);
      table.intern_referenced(e.dst);
    }
  }
}

void expect_same_table(const VertexTable& want, const VertexTable& got) {
  ASSERT_EQ(want.size(), got.size());
  for (Gid gid = 0; gid < want.size(); ++gid) {
    ASSERT_EQ(want.fid_of(gid), got.fid_of(gid)) << "gid " << gid;
    ASSERT_EQ(want.kind_of(gid), got.kind_of(gid)) << "gid " << gid;
    ASSERT_EQ(want.scan_count(gid), got.scan_count(gid)) << "gid " << gid;
    ASSERT_EQ(got.lookup(got.fid_of(gid)), gid);
  }
}

TEST(VertexTableTest, InternAssignsDenseSequentialGids) {
  VertexTable table;
  EXPECT_EQ(table.intern_scanned(Fid{1, 1, 0}, ObjectKind::kDirectory), 0u);
  EXPECT_EQ(table.intern_scanned(Fid{1, 2, 0}, ObjectKind::kFile), 1u);
  EXPECT_EQ(table.intern_scanned(Fid{2, 1, 0}, ObjectKind::kStripeObject), 2u);
  EXPECT_EQ(table.size(), 3u);
}

TEST(VertexTableTest, LookupFindsInternedAndRejectsUnknown) {
  VertexTable table;
  const Gid gid = table.intern_scanned(Fid{1, 1, 0}, ObjectKind::kFile);
  EXPECT_EQ(table.lookup(Fid{1, 1, 0}), gid);
  EXPECT_EQ(table.lookup(Fid{9, 9, 9}), kInvalidGid);
}

TEST(VertexTableTest, RemappingIsBijective) {
  VertexTable table;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    table.intern_scanned(Fid{0x200000400, i + 1, 0}, ObjectKind::kFile);
  }
  for (Gid gid = 0; gid < 1000; ++gid) {
    EXPECT_EQ(table.lookup(table.fid_of(gid)), gid);
  }
}

TEST(VertexTableTest, ReferencedCreatesPhantom) {
  VertexTable table;
  const Gid gid = table.intern_referenced(Fid{1, 1, 0});
  EXPECT_FALSE(table.is_scanned(gid));
  EXPECT_EQ(table.kind_of(gid), ObjectKind::kPhantom);
  EXPECT_EQ(table.scan_count(gid), 0u);
}

TEST(VertexTableTest, ScanUpgradesPhantom) {
  VertexTable table;
  const Gid phantom = table.intern_referenced(Fid{1, 1, 0});
  const Gid upgraded = table.intern_scanned(Fid{1, 1, 0}, ObjectKind::kFile);
  EXPECT_EQ(phantom, upgraded);
  EXPECT_TRUE(table.is_scanned(upgraded));
  EXPECT_EQ(table.kind_of(upgraded), ObjectKind::kFile);
}

TEST(VertexTableTest, ReferenceAfterScanKeepsScannedState) {
  VertexTable table;
  const Gid gid = table.intern_scanned(Fid{1, 1, 0}, ObjectKind::kDirectory);
  EXPECT_EQ(table.intern_referenced(Fid{1, 1, 0}), gid);
  EXPECT_TRUE(table.is_scanned(gid));
  EXPECT_EQ(table.kind_of(gid), ObjectKind::kDirectory);
}

TEST(VertexTableTest, DuplicateScansCountIdCollisions) {
  VertexTable table;
  const Gid first = table.intern_scanned(Fid{1, 1, 0}, ObjectKind::kStripeObject);
  const Gid second =
      table.intern_scanned(Fid{1, 1, 0}, ObjectKind::kStripeObject);
  EXPECT_EQ(first, second);
  EXPECT_EQ(table.scan_count(first), 2u);
}

TEST(VertexTableTest, BytesGrowsWithContent) {
  VertexTable table;
  const auto empty = table.bytes();
  for (std::uint32_t i = 0; i < 100; ++i) {
    table.intern_scanned(Fid{1, i + 1, 0}, ObjectKind::kFile);
  }
  EXPECT_GT(table.bytes(), empty);
}

TEST(VertexTableTest, BytesCountsOverflowOnlyPastTheRunCap) {
  // Scanned oids 1, 2, 3 and 100: 4 records cap the run at 8 slots, so
  // oid 7 is direct and oids 8 and 100 go to overflow. The columns are
  // reserved up front, so bytes() moves only with overflow entries.
  VertexTable table;
  for (const std::uint32_t oid : {1u, 2u, 3u, 100u}) {
    table.count_scanned(Fid{kMdsSeq, oid, 0});
  }
  table.size_runs(16);
  VertexTable reference;
  const auto intern_both = [&](std::uint32_t oid, bool scanned) {
    const Fid fid{kMdsSeq, oid, 0};
    const Gid gid = scanned ? table.intern_scanned(fid, ObjectKind::kFile)
                            : table.intern_referenced(fid);
    EXPECT_EQ(gid, scanned ? reference.intern_scanned(fid, ObjectKind::kFile)
                           : reference.intern_referenced(fid));
  };
  for (const std::uint32_t oid : {1u, 2u, 3u}) intern_both(oid, true);
  const std::uint64_t direct = table.bytes();
  intern_both(100, true);
  const std::uint64_t entry = table.bytes() - direct;
  EXPECT_GT(entry, 0u);
  intern_both(7, false);  // cap − 1
  EXPECT_EQ(table.bytes(), direct + entry);
  intern_both(8, false);  // the cap
  EXPECT_EQ(table.bytes(), direct + 2 * entry);
  expect_same_table(reference, table);
  EXPECT_EQ(table.lookup(Fid{kMdsSeq, 6, 0}), kInvalidGid);
  EXPECT_EQ(table.lookup(Fid{kMdsSeq, 9, 0}), kInvalidGid);
}

TEST(VertexTableTest, PhantomInsideRunIsUpgradedByScan) {
  VertexTable table;
  for (std::uint32_t oid = 1; oid <= 4; ++oid) {
    table.count_scanned(Fid{kOstSeq, oid, 0});
  }
  table.size_runs(4);
  const Gid phantom = table.intern_referenced(Fid{kOstSeq, 3, 0});
  EXPECT_EQ(table.kind_of(phantom), ObjectKind::kPhantom);
  EXPECT_FALSE(table.is_scanned(phantom));
  const Gid scanned =
      table.intern_scanned(Fid{kOstSeq, 3, 0}, ObjectKind::kStripeObject);
  EXPECT_EQ(scanned, phantom);
  EXPECT_EQ(table.kind_of(scanned), ObjectKind::kStripeObject);
  EXPECT_EQ(table.scan_count(scanned), 1u);
  EXPECT_EQ(table.intern_referenced(Fid{kOstSeq, 3, 0}), scanned);
}

TEST(VertexTableTest, DuplicateScansCountInRunAndOverflowAndSaturate) {
  const Fid direct{kMdsSeq, 2, 0};
  const Fid versioned{kMdsSeq, 2, 1};  // ver ≠ 0: overflow
  VertexTable table;
  table.count_scanned(direct);
  table.count_scanned(direct);
  table.count_scanned(versioned);
  table.size_runs(2);
  for (int i = 0; i < 2; ++i) {
    table.intern_scanned(direct, ObjectKind::kFile);
    table.intern_scanned(versioned, ObjectKind::kFile);
  }
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.scan_count(table.lookup(direct)), 2u);
  EXPECT_EQ(table.scan_count(table.lookup(versioned)), 2u);
  for (int i = 0; i < 300; ++i) {
    table.intern_scanned(direct, ObjectKind::kFile);
    table.intern_scanned(versioned, ObjectKind::kFile);
  }
  EXPECT_EQ(table.scan_count(table.lookup(direct)), 255u);
  EXPECT_EQ(table.scan_count(table.lookup(versioned)), 255u);
}

TEST(VertexTableTest, SizingAfterInternThrows) {
  VertexTable table;
  table.intern_scanned(Fid{1, 1, 0}, ObjectKind::kFile);
  table.count_scanned(Fid{1, 2, 0});
  EXPECT_THROW(table.size_runs(1), std::logic_error);
}

TEST(VertexTableTest, CorruptOidCostsOneOverflowEntryNotAHugeRun) {
  // A dense MDS sequence plus one scanned inode whose LMA claims oid
  // 0xffffffff. The run stays capped at 2 slots per record and every
  // dense oid stays direct: the only overflow entry is the corrupt one.
  constexpr std::uint32_t kDense = 1000;
  std::vector<Fid> fids;
  for (std::uint32_t oid = 1; oid <= kDense; ++oid) {
    fids.push_back(Fid{kMdsSeq, oid, 0});
  }
  fids.push_back(Fid{kMdsSeq, 0xffffffffu, 0});
  VertexTable table;
  for (const Fid& fid : fids) table.count_scanned(fid);
  table.size_runs(fids.size());
  for (const Fid& fid : fids) table.intern_scanned(fid, ObjectKind::kFile);

  const std::uint64_t records = fids.size();
  const std::uint64_t columns =
      records * (sizeof(Fid) + sizeof(ObjectKind) + sizeof(std::uint8_t));
  const std::uint64_t run = 2 * sizeof(Gid) * records + 3 * sizeof(std::uint64_t);
  const std::uint64_t one_overflow_entry =
      sizeof(Fid) + sizeof(Gid) + 2 * sizeof(void*);
  EXPECT_LE(table.bytes(), columns + run + one_overflow_entry);
  EXPECT_EQ(table.lookup(Fid{kMdsSeq, 0xffffffffu, 0}), kDense);
}

// Sized and unsized tables must agree on every GID, kind, scan count and
// lookup, over dense sequences with gaps, sparse sequences, ver ≠ 0 ids
// and corrupt oids, for FIDs interned and never interned alike.
class VertexTablePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VertexTablePropertyTest, SizedTableMatchesUnsizedTable) {
  Rng rng(GetParam());
  const std::uint64_t dense_seqs[] = {kMdsSeq, kOstSeq, kOstSeq + 1};
  const auto random_fid = [&]() -> Fid {
    const std::uint64_t seq = dense_seqs[rng.below(3)];
    switch (rng.below(10)) {
      case 0:  // corrupt oid
        return Fid{seq, rng.below(2) == 0 ? 0xdeadbeefu
                                          : static_cast<std::uint32_t>(rng()),
                   0};
      case 1:  // versioned
        return Fid{seq, static_cast<std::uint32_t>(1 + rng.below(300)),
                   static_cast<std::uint32_t>(1 + rng.below(3))};
      case 2:  // a sequence with few or no scanned records
        return Fid{0xdead0000 + rng.below(4),
                   static_cast<std::uint32_t>(rng.below(1000)), 0};
      default:  // dense, with gaps and oids past the scanned maximum
        return Fid{seq, static_cast<std::uint32_t>(rng.below(400)), 0};
    }
  };
  std::vector<PartialGraph> partials(1 + rng.below(4));
  for (auto& partial : partials) {
    const std::size_t vertices = rng.below(300);
    for (std::size_t i = 0; i < vertices; ++i) {
      partial.add_vertex(random_fid(), static_cast<ObjectKind>(rng.below(5)));
    }
    const std::size_t edges = rng.below(600);
    for (std::size_t i = 0; i < edges; ++i) {
      partial.add_edge(random_fid(), random_fid(),
                       static_cast<EdgeKind>(rng.below(5)));
    }
  }

  VertexTable sized;
  size_for(sized, partials);
  intern_all(sized, partials);
  VertexTable unsized;
  intern_all(unsized, partials);
  expect_same_table(unsized, sized);
  for (int i = 0; i < 2000; ++i) {
    const Fid probe = random_fid();
    ASSERT_EQ(sized.lookup(probe), unsized.lookup(probe))
        << probe.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPartials, VertexTablePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace faultyrank
