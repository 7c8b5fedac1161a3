#include "pfs/persistence.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

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

  ClusterScan original_scan = scan_cluster(original);
  ClusterScan loaded_scan = scan_cluster(loaded);
  const AggregationResult a = aggregate(original_scan.results);
  const AggregationResult b = aggregate(loaded_scan.results);
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
  ClusterScan scan = scan_cluster(loaded);
  const AggregationResult agg = aggregate(scan.results);
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
  ClusterScan scan = scan_cluster(loaded);
  const AggregationResult agg = aggregate(scan.results);
  EXPECT_TRUE(agg.graph.unpaired_edges().empty());
  std::remove(path.c_str());
}

TEST(PersistenceTest, SaveIsAtomicAndLeavesNoTempFile) {
  // save_cluster writes through atomic_write_file: the bytes land in
  // `path + ".tmp"` and are renamed over `path`, so nothing is left
  // beside the snapshot once the save returns.
  const LustreCluster cluster = testing::make_populated_cluster(80, 42, 2);
  const std::string path = temp_path("atomic.fimg");
  std::filesystem::remove(path);

  save_cluster(cluster, path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const LustreCluster loaded = load_cluster(path);
  EXPECT_EQ(loaded.server_count(), 3u);
  std::filesystem::remove(path);
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

// An image stores its in-use count, and the cluster's inode totals
// read it (repair keys its LMA index on them, namespace generation its
// name salt). A count that disagrees with the in-use slots is corrupt:
// forged to 0, to 2^64 - 1 or one off either way, on an MDT and an OST
// image, it fails the load, and the honest count still loads.
TEST(PersistenceTest, ForgedInUseCountIsRejected) {
  const LustreCluster cluster = testing::make_populated_cluster(150, 34, 2);
  // LdiskfsImage::serialize ends with the in-use count, the OI count and
  // the OI's 24-byte entries; an undamaged image's OI holds one entry
  // per in-use inode.
  const auto forged_bytes = [](const LdiskfsImage& image,
                               std::uint64_t count) {
    std::vector<std::uint8_t> bytes = serialize_image(image);
    const std::uint64_t in_use = image.inodes_in_use();
    const std::size_t count_at = bytes.size() - 24 * in_use - 16;
    std::uint64_t stored[2];
    std::memcpy(stored, bytes.data() + count_at, sizeof stored);
    EXPECT_EQ(stored[0], in_use);
    EXPECT_EQ(stored[1], in_use);
    std::memcpy(bytes.data() + count_at, &count, sizeof count);
    return bytes;
  };
  for (const LdiskfsImage* image :
       {&cluster.mdt_server(0).image, &cluster.osts()[0].image}) {
    SCOPED_TRACE(image->label());
    const std::uint64_t in_use = image->inodes_in_use();
    ASSERT_GT(in_use, 1u);
    for (const std::uint64_t count :
         {std::uint64_t{0}, ~std::uint64_t{0}, in_use - 1, in_use + 1}) {
      try {
        (void)deserialize_image(forged_bytes(*image, count));
        ADD_FAILURE() << "in-use count " << count << " loaded";
      } catch (const PersistenceError& error) {
        EXPECT_NE(std::string(error.what()).find("in-use count"),
                  std::string::npos)
            << error.what();
      }
    }
    EXPECT_EQ(deserialize_image(forged_bytes(*image, in_use)).inodes_in_use(),
              in_use);
  }
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
