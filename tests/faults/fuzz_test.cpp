// Randomized robustness campaigns: arbitrary raw EA corruption beyond
// the paper's eight curated scenarios. The checker must never crash,
// never corrupt healthy regions, and repairs must monotonically reduce
// the inconsistency count.
#include <gtest/gtest.h>

#include "aggregator/aggregator.h"
#include "checker/checker.h"
#include "common/random.h"
#include "faults/injector.h"
#include "pfs/persistence.h"
#include "scanner/scanner.h"
#include "testing/fixtures.h"

namespace faultyrank {
namespace {

/// Applies `count` random low-level corruptions: each picks a random
/// live MDT/OST inode and mangles a random metadata field.
void random_corruptions(LustreCluster& cluster, Rng& rng, int count) {
  for (int i = 0; i < count; ++i) {
    const bool on_mdt = rng.chance(0.6);
    LdiskfsImage& image =
        on_mdt ? cluster.mdt().image
               : cluster.ost(rng.below(cluster.osts().size())).image;
    // Pick a random live ino.
    if (image.inodes_in_use() == 0) continue;
    Inode* inode = nullptr;
    for (int tries = 0; tries < 64 && inode == nullptr; ++tries) {
      inode = image.find(1 + rng.below(image.inode_slots()));
    }
    if (inode == nullptr) continue;

    const Fid garbage{0xf0220000ULL + rng.below(1000),
                      static_cast<std::uint32_t>(rng.below(1u << 20)), 0};
    switch (rng.below(6)) {
      case 0:  // mangle a LOVEA slot
        if (inode->lov_ea.has_value() && !inode->lov_ea->stripes.empty()) {
          inode->lov_ea->stripes[rng.below(inode->lov_ea->stripes.size())]
              .stripe = garbage;
        }
        break;
      case 1:  // drop a LinkEA
        inode->link_ea.clear();
        break;
      case 2:  // mangle a dirent target
        if (!inode->dirents.empty()) {
          inode->dirents[rng.below(inode->dirents.size())].fid = garbage;
        }
        break;
      case 3:  // mangle the filter fid
        if (inode->filter_fid.has_value()) {
          inode->filter_fid->parent = garbage;
        }
        break;
      case 4:  // drop a dirent entry
        if (!inode->dirents.empty()) {
          inode->dirents.erase(inode->dirents.begin() +
                               static_cast<std::ptrdiff_t>(
                                   rng.below(inode->dirents.size())));
        }
        break;
      case 5:  // clear the layout entirely
        if (inode->lov_ea.has_value()) inode->lov_ea->stripes.clear();
        break;
    }
  }
}

std::size_t unpaired_count(const LustreCluster& cluster) {
  ClusterScan scan = scan_cluster(cluster);
  return aggregate(scan.results).graph.unpaired_edges().size();
}

class FuzzCampaignTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzCampaignTest, CheckerSurvivesAndImproves) {
  LustreCluster cluster = testing::make_populated_cluster(200, GetParam());
  Rng rng(GetParam() * 31 + 5);
  random_corruptions(cluster, rng, 12);

  const std::size_t broken_before = unpaired_count(cluster);

  CheckerConfig config;
  config.apply_repairs = true;
  const CheckerResult result = run_checker(cluster, config);
  EXPECT_EQ(result.unpaired_edges, broken_before);

  // Repairs must strictly reduce (or eliminate) inconsistency; they may
  // quarantine, but they must never create fresh damage.
  const std::size_t broken_after = unpaired_count(cluster);
  if (broken_before > 0) {
    EXPECT_LT(broken_after, broken_before);
  } else {
    EXPECT_EQ(broken_after, 0u);
  }

  // A second repair pass converges (no oscillation).
  const CheckerResult second = run_checker(cluster, config);
  const std::size_t broken_final = unpaired_count(cluster);
  EXPECT_LE(broken_final, broken_after);
  (void)second;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCampaignTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

TEST(FuzzSafetyTest, HealthyRegionsAreNeverTouched) {
  LustreCluster cluster = testing::make_populated_cluster(200, 97);
  // Record a healthy file's full metadata before fault + repair.
  const Fid probe =
      cluster.create_file(cluster.root(), "probe.bin", 3 * 64 * 1024);
  const Inode before = *cluster.stat(probe);

  Rng rng(98);
  // Corrupt other objects only (the probe is protected by re-rolling).
  for (int i = 0; i < 8; ++i) {
    FaultInjector injector(cluster, rng());
    for (const Scenario scenario :
         {Scenario::kMismatchTargetProperty, Scenario::kDanglingTargetId}) {
      try {
        GroundTruth truth;
        do {
          truth = FaultInjector(cluster, rng()).inject(scenario);
        } while (truth.victim == probe || truth.current == probe);
        break;
      } catch (const InjectionError&) {
        break;
      }
    }
  }

  CheckerConfig config;
  config.apply_repairs = true;
  (void)run_checker(cluster, config);

  const Inode* after = cluster.stat(probe);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->lma_fid, before.lma_fid);
  EXPECT_EQ(after->link_ea, before.link_ea);
  ASSERT_TRUE(after->lov_ea.has_value());
  EXPECT_EQ(after->lov_ea->stripes, before.lov_ea->stripes);
}

// Snapshot (de)serialization fuzzing: deserialize_cluster must reject
// malformed input with PersistenceError — never any other exception
// type, never a crash or out-of-bounds read (the sanitizer rows of the
// test matrix run these same cases under asan/ubsan).

TEST(SnapshotFuzzTest, TruncatedSnapshotsAlwaysThrow) {
  const LustreCluster cluster = testing::make_populated_cluster(64, 11, 3);
  const std::vector<std::uint8_t> bytes = serialize_cluster(cluster);
  ASSERT_GT(bytes.size(), 64u);

  // Parsing consumes exactly the serialized length, so every strict
  // prefix cuts mid-parse and must throw. Exhaust the header region,
  // then sample the tail.
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < 64; ++n) cuts.push_back(n);
  Rng rng(0xdeadbeef);
  for (int i = 0; i < 200; ++i) cuts.push_back(rng.below(bytes.size()));
  for (const std::size_t cut : cuts) {
    const std::vector<std::uint8_t> prefix(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)deserialize_cluster(prefix), PersistenceError)
        << "prefix of " << cut << " of " << bytes.size() << " bytes parsed";
  }
}

TEST(SnapshotFuzzTest, BitFlippedSnapshotsNeverEscalate) {
  const LustreCluster cluster = testing::make_populated_cluster(64, 12, 3);
  const std::vector<std::uint8_t> bytes = serialize_cluster(cluster);
  Rng rng(0xfeedface);

  int rejected = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> mutated = bytes;
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.below(mutated.size());
      mutated[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    }
    // A flip in payload bytes (a filename char, a size field that stays
    // plausible) may still parse; a flip in structure must be rejected
    // with PersistenceError specifically. Anything else escapes and
    // fails the test.
    try {
      (void)deserialize_cluster(mutated);
    } catch (const PersistenceError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

// Image-level fuzzing: the same guarantees hold for the per-image
// framing (serialize_image / deserialize_image), parsed here on its own,
// without the cluster envelope. The
// positional-ino invariant (slot k holds ino k+1) must be enforced at
// parse time — a flipped ino that slipped through would index the
// checker's bootstrap tables out of bounds.

TEST(ImageFuzzTest, TruncatedImagesAlwaysThrow) {
  const LustreCluster cluster = testing::make_populated_cluster(64, 13, 3);
  const std::vector<std::uint8_t> bytes =
      serialize_image(cluster.mdt().image);
  ASSERT_GT(bytes.size(), 32u);

  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < 32; ++n) cuts.push_back(n);
  Rng rng(0xcafe5eed);
  for (int i = 0; i < 200; ++i) cuts.push_back(rng.below(bytes.size()));
  for (const std::size_t cut : cuts) {
    const std::vector<std::uint8_t> prefix(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)deserialize_image(prefix), PersistenceError)
        << "prefix of " << cut << " of " << bytes.size() << " bytes parsed";
  }
}

TEST(ImageFuzzTest, BitFlippedImagesNeverEscalate) {
  const LustreCluster cluster = testing::make_populated_cluster(64, 14, 3);
  for (std::size_t source = 0; source < 2; ++source) {
    const std::vector<std::uint8_t> bytes = serialize_image(
        source == 0 ? cluster.mdt().image : cluster.osts()[0].image);
    Rng rng(0xb17f11b5 + source);
    int rejected = 0;
    int parsed = 0;
    for (int i = 0; i < 300; ++i) {
      std::vector<std::uint8_t> mutated = bytes;
      const int flips = 1 + static_cast<int>(rng.below(4));
      for (int f = 0; f < flips; ++f) {
        const std::size_t at = rng.below(mutated.size());
        mutated[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      }
      try {
        const LdiskfsImage image = deserialize_image(mutated);
        ++parsed;
        // Whatever parsed must uphold the positional-ino invariant the
        // loader promises to every downstream consumer.
        image.for_each_inode([&](const Inode& inode) {
          ASSERT_NE(image.find(inode.ino), nullptr);
          EXPECT_EQ(image.find(inode.ino)->ino, inode.ino);
        });
      } catch (const PersistenceError&) {
        ++rejected;
      }
    }
    EXPECT_GT(rejected, 0) << "source " << source;
    EXPECT_GT(parsed, 0) << "source " << source;
  }
}

TEST(ImageFuzzTest, MismatchedInoSlotIsRejected) {
  const LustreCluster cluster = testing::make_populated_cluster(32, 15, 2);
  LustreCluster copy =
      deserialize_cluster(serialize_cluster(cluster));
  // Forge an in-use inode whose recorded ino disagrees with its slot;
  // serialization preserves the lie, deserialization must refuse it.
  bool forged = false;
  testing::for_each_inode_mut(copy.mdt().image, [&](Inode& inode) {
    if (forged || inode.ino < 4) return;
    inode.ino += 1;
    forged = true;
  });
  ASSERT_TRUE(forged);
  const std::vector<std::uint8_t> bytes = serialize_image(copy.mdt().image);
  EXPECT_THROW((void)deserialize_image(bytes), PersistenceError);
}

}  // namespace
}  // namespace faultyrank
