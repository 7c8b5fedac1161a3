#include "pfs/persistence.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "aggregator/aggregator.h"
#include "faults/injector.h"
#include "scanner/scanner.h"
#include "testing/fixtures.h"

namespace faultyrank {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(PersistenceTest, RoundTripPreservesStructure) {
  const std::string path = temp_path("roundtrip.fimg");
  LustreCluster original = testing::make_populated_cluster(150, 51);
  save_cluster(original, path);
  LustreCluster loaded = load_cluster(path);

  EXPECT_EQ(loaded.root(), original.root());
  EXPECT_EQ(loaded.mdt_inodes_used(), original.mdt_inodes_used());
  EXPECT_EQ(loaded.total_ost_objects(), original.total_ost_objects());
  EXPECT_EQ(loaded.osts().size(), original.osts().size());
  EXPECT_EQ(loaded.default_policy().stripe_size,
            original.default_policy().stripe_size);
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadedClusterScansToIdenticalGraph) {
  const std::string path = temp_path("scan.fimg");
  LustreCluster original = testing::make_populated_cluster(120, 52);
  save_cluster(original, path);
  LustreCluster loaded = load_cluster(path);

  const AggregationResult a = aggregate(scan_cluster(original).results);
  const AggregationResult b = aggregate(scan_cluster(loaded).results);
  ASSERT_EQ(a.graph.vertex_count(), b.graph.vertex_count());
  ASSERT_EQ(a.graph.edge_count(), b.graph.edge_count());
  for (Gid v = 0; v < a.graph.vertex_count(); ++v) {
    EXPECT_EQ(a.graph.vertices().fid_of(v), b.graph.vertices().fid_of(v));
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, SnapshotPreservesCorruption) {
  const std::string path = temp_path("broken.fimg");
  LustreCluster original = testing::make_populated_cluster(120, 53);
  FaultInjector injector(original, 5353);
  const GroundTruth truth = injector.inject(Scenario::kDanglingTargetId);
  save_cluster(original, path);

  // The offline checker workflow: load the unmounted image, check it.
  LustreCluster loaded = load_cluster(path);
  EXPECT_FALSE(verify_restored(loaded, truth));
  const AggregationResult agg = aggregate(scan_cluster(loaded).results);
  EXPECT_FALSE(agg.graph.unpaired_edges().empty());
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadedClusterRemainsFullyOperational) {
  const std::string path = temp_path("ops.fimg");
  LustreCluster original = testing::make_populated_cluster(80, 54);
  save_cluster(original, path);
  LustreCluster loaded = load_cluster(path);

  // FID allocation must continue past the snapshot without collision.
  const Fid dir = loaded.mkdir(loaded.root(), "post_load");
  const Fid file = loaded.create_file(dir, "new.dat", 100 * 1024);
  EXPECT_EQ(loaded.resolve("/post_load/new.dat"), file);
  const AggregationResult agg = aggregate(scan_cluster(loaded).results);
  EXPECT_TRUE(agg.graph.unpaired_edges().empty());
  std::remove(path.c_str());
}

TEST(PersistenceTest, MissingFileThrows) {
  EXPECT_THROW((void)load_cluster(temp_path("nope.fimg")), PersistenceError);
}

TEST(PersistenceTest, CorruptSnapshotThrows) {
  const std::string path = temp_path("garbage.fimg");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[] = "not a snapshot";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_THROW((void)load_cluster(path), PersistenceError);
  std::remove(path.c_str());
}

TEST(PersistenceTest, TruncatedSnapshotThrows) {
  const std::string path = temp_path("trunc.fimg");
  LustreCluster original = testing::make_populated_cluster(50, 55);
  save_cluster(original, path);
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  EXPECT_THROW((void)load_cluster(path), PersistenceError);
  std::remove(path.c_str());
}

TEST(PersistenceTest, ImpossibleInodeTypeThrows) {
  LdiskfsImage image("oss0");
  image.allocate(InodeType::kOstObject);
  Inode& forged = image.allocate(InodeType::kOstObject);
  forged.type = static_cast<InodeType>(6);
  EXPECT_THROW((void)deserialize_image(serialize_image(image)),
               PersistenceError);
  forged.type = static_cast<InodeType>(0xff);
  EXPECT_THROW((void)deserialize_image(serialize_image(image)),
               PersistenceError);
  forged.type = InodeType::kOstObject;
  EXPECT_NO_THROW((void)deserialize_image(serialize_image(image)));
}

TEST(PersistenceTest, FreeSlotTypeByteIsNotChecked) {
  // A free slot's bytes are never read, so only in-use slots are held
  // to a valid type.
  LdiskfsImage image("oss0");
  image.allocate(InodeType::kOstObject);
  image.allocate(InodeType::kOstObject);
  image.release(1);
  std::vector<std::uint8_t> bytes = serialize_image(image);
  // Slot 0's type byte follows the label, inodes_per_group, the slot
  // count and slot 0's ino.
  const std::size_t type_at = 4 + image.label().size() + 4 + 8 + 8;
  ASSERT_EQ(bytes[type_at], static_cast<std::uint8_t>(InodeType::kOstObject));
  bytes[type_at] = 6;
  const LdiskfsImage loaded = deserialize_image(bytes);
  EXPECT_EQ(loaded.find(1), nullptr);
  EXPECT_NE(loaded.find(2), nullptr);
}

}  // namespace
}  // namespace faultyrank
