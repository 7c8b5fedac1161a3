// Conformance of the baseline to the Table I behaviour matrix: what
// LFSCK identifies, what it repairs, and what it silently cannot see.
#include "lfsck/lfsck.h"

#include <gtest/gtest.h>

#include "faults/injector.h"
#include "testing/fixtures.h"

namespace faultyrank {
namespace {

TEST(LfsckTest, CleanClusterProducesNoEvents) {
  LustreCluster cluster = testing::make_populated_cluster(100, 21);
  const LfsckResult result = run_lfsck(cluster);
  EXPECT_TRUE(result.events.empty());
  EXPECT_GT(result.inodes_checked, 0u);
  EXPECT_GT(result.rpcs_issued, 0u);
  EXPECT_GT(result.sim_seconds, 0.0);
}

TEST(LfsckTest, DanglingLovEaSlotRecreatesEmptyObject) {
  LustreCluster cluster = testing::make_populated_cluster(50, 22);
  // Manually dangle one LOVEA slot (as if the object vanished).
  Fid victim_file;
  testing::for_each_inode_mut(cluster.mdt().image, [&](Inode& inode) {
    if (victim_file.is_null() && inode.type == InodeType::kRegular &&
        inode.lov_ea.has_value() && !inode.lov_ea->stripes.empty()) {
      victim_file = inode.lma_fid;
      const LovEaEntry slot = inode.lov_ea->stripes[0];
      OstServer& ost = cluster.ost(slot.ost_index);
      const Inode* object = ost.image.find_by_fid(slot.stripe);
      ost.image.release(object->ino);
    }
  });
  ASSERT_FALSE(victim_file.is_null());

  const LfsckResult result = run_lfsck(cluster);
  EXPECT_EQ(result.count(LfsckActionKind::kRecreateOstObject), 1u);
  // "MDS is right": the object now exists again under the expected id.
  const Inode* file = cluster.stat(victim_file);
  const LovEaEntry& slot = file->lov_ea->stripes[0];
  const Inode* recreated =
      cluster.ost(slot.ost_index).image.find_by_fid(slot.stripe);
  ASSERT_NE(recreated, nullptr);
  EXPECT_EQ(recreated->filter_fid->parent, victim_file);
}

TEST(LfsckTest, FilterFidMismatchOverwrittenFromMds) {
  LustreCluster cluster = testing::make_populated_cluster(50, 23);
  FaultInjector injector(cluster, 1);
  const GroundTruth truth = injector.inject(Scenario::kMismatchTargetProperty);

  const LfsckResult result = run_lfsck(cluster);
  EXPECT_GE(result.count(LfsckActionKind::kOverwriteFilterFid), 1u);
  // Table I row 7: correctly repaired (b's property rebuilt from a).
  EXPECT_TRUE(verify_restored(cluster, truth));
}

TEST(LfsckTest, OrphanOstObjectGoesToLostFoundNotRepaired) {
  LustreCluster cluster = testing::make_populated_cluster(50, 24);
  FaultInjector injector(cluster, 2);
  // b's id corrupted: LFSCK recreates an empty object for the dangling
  // slot and ships the real (mis-identified) object to lost+found —
  // identified, but the id itself is never repaired (Table I row 2).
  const GroundTruth truth = injector.inject(Scenario::kDanglingTargetId);

  const LfsckResult result = run_lfsck(cluster);
  EXPECT_GE(result.count(LfsckActionKind::kRecreateOstObject), 1u);
  EXPECT_GE(result.count(LfsckActionKind::kOrphanToLostFound), 1u);
  // The corrupted id is NOT restored: no object carries the old id with
  // the original data — the recreated one is an empty stub, and the
  // orphan keeps its bogus id inside lost+found.
  bool orphan_kept_bogus_id = false;
  for (const auto& ost : cluster.osts()) {
    if (ost.image.find_by_fid_raw(truth.current) != nullptr) {
      orphan_kept_bogus_id = true;
    }
  }
  EXPECT_TRUE(orphan_kept_bogus_id);
}

TEST(LfsckTest, DanglingDirentIsDropped) {
  LustreCluster cluster = testing::make_populated_cluster(50, 25);
  // Point one directory entry at a nonexistent fid.
  Fid dir_fid;
  testing::for_each_inode_mut(cluster.mdt().image, [&](Inode& inode) {
    if (dir_fid.is_null() && inode.type == InodeType::kDirectory &&
        !inode.dirents.empty() && inode.lma_fid != cluster.root()) {
      dir_fid = inode.lma_fid;
      inode.dirents[0].fid = Fid{0xbad, 1, 0};
    }
  });
  ASSERT_FALSE(dir_fid.is_null());
  const std::size_t before =
      cluster.mdt().image.find_by_fid(dir_fid)->dirents.size();

  const LfsckResult result = run_lfsck(cluster);
  EXPECT_GE(result.count(LfsckActionKind::kRemoveDanglingDirent), 1u);
  EXPECT_LT(cluster.mdt().image.find_by_fid(dir_fid)->dirents.size(), before);
}

TEST(LfsckTest, MissingLinkEaRebuiltFromDirent) {
  LustreCluster cluster = testing::make_populated_cluster(50, 26);
  Fid child;
  Fid parent;
  testing::for_each_inode_mut(cluster.mdt().image, [&](Inode& inode) {
    if (child.is_null() && inode.type == InodeType::kRegular &&
        !inode.link_ea.empty()) {
      child = inode.lma_fid;
      parent = inode.link_ea[0].parent;
      inode.link_ea.clear();
    }
  });
  ASSERT_FALSE(child.is_null());

  const LfsckResult result = run_lfsck(cluster);
  EXPECT_GE(result.count(LfsckActionKind::kRebuildLinkEa), 1u);
  const Inode* inode = cluster.mdt().image.find_by_fid(child);
  ASSERT_EQ(inode->link_ea.size(), 1u);
  EXPECT_EQ(inode->link_ea[0].parent, parent);
}

TEST(LfsckTest, CannotIdentifyCorruptedSourceProperty) {
  // Table I row 1: "a's property is wrong → ignore, cannot identify or
  // repair". LFSCK recreates empty objects for each bogus slot and
  // orphans the stranded stripes — the property itself is never fixed.
  LustreCluster cluster = testing::make_populated_cluster(50, 27);
  FaultInjector injector(cluster, 3);
  const GroundTruth truth =
      injector.inject(Scenario::kDanglingSourceProperty);

  const LfsckResult result = run_lfsck(cluster);
  EXPECT_GE(result.count(LfsckActionKind::kRecreateOstObject), 1u);
  // The original reference was NOT restored (data effectively lost to
  // lost+found stubs):
  EXPECT_FALSE(verify_restored(cluster, truth));
}

TEST(LfsckTest, DryRunReportsWithoutMutating) {
  LustreCluster cluster = testing::make_populated_cluster(50, 28);
  FaultInjector injector(cluster, 4);
  injector.inject(Scenario::kMismatchTargetProperty);

  LfsckConfig config;
  config.repair = false;
  const std::uint64_t objects_before = cluster.total_ost_objects();
  const std::uint64_t inodes_before = cluster.mdt_inodes_used();
  const LfsckResult result = run_lfsck(cluster, config);
  EXPECT_FALSE(result.events.empty());
  EXPECT_EQ(cluster.total_ost_objects(), objects_before);
  EXPECT_EQ(cluster.mdt_inodes_used(), inodes_before);
}

TEST(LfsckTest, CostModelScalesWithClusterSize) {
  LustreCluster small = testing::make_populated_cluster(50, 29);
  LustreCluster large = testing::make_populated_cluster(400, 29);
  const LfsckResult small_result = run_lfsck(small);
  const LfsckResult large_result = run_lfsck(large);
  EXPECT_GT(large_result.sim_seconds, small_result.sim_seconds);
  EXPECT_GT(large_result.rpcs_issued, small_result.rpcs_issued);
}

TEST(LfsckTest, RepairedClusterPassesSecondRun) {
  LustreCluster cluster = testing::make_populated_cluster(60, 30);
  FaultInjector injector(cluster, 5);
  injector.inject(Scenario::kMismatchTargetProperty);
  (void)run_lfsck(cluster);
  const LfsckResult second = run_lfsck(cluster);
  EXPECT_TRUE(second.events.empty());
}

}  // namespace
}  // namespace faultyrank
