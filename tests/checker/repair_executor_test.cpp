#include "checker/repair_executor.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace faultyrank {
namespace {

TEST(RepairExecutorTest, OverwriteIdRewritesLmaAndOi) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, 1});
  const Fid file = cluster.create_file(cluster.root(), "f", 1000);
  const Fid new_id{0x777, 1, 0};

  RepairExecutor executor(cluster);
  const RepairOutcome outcome = executor.apply(
      {RepairKind::kOverwriteId, file, new_id, kNullFid, EdgeKind::kGeneric,
       kNullFid, ""});
  EXPECT_TRUE(outcome.applied);
  EXPECT_EQ(cluster.mdt().image.find_by_fid_raw(file), nullptr);
  const Inode* inode = cluster.mdt().image.find_by_fid(new_id);
  ASSERT_NE(inode, nullptr);
  EXPECT_EQ(inode->lma_fid, new_id);
}

TEST(RepairExecutorTest, OverwriteIdMissingTargetFails) {
  LustreCluster cluster(2);
  RepairExecutor executor(cluster);
  const RepairOutcome outcome = executor.apply(
      {RepairKind::kOverwriteId, Fid{9, 9, 9}, Fid{1, 1, 1}, kNullFid,
       EdgeKind::kGeneric, kNullFid, ""});
  EXPECT_FALSE(outcome.applied);
}

TEST(RepairExecutorTest, OverwriteIdHonoursOwnerHintOnCollision) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, 1});
  const Fid file_a = cluster.create_file(cluster.root(), "a", 1000);
  const Fid file_c = cluster.create_file(cluster.root(), "c", 1000);
  const Inode* a = cluster.stat(file_a);
  const Inode* c = cluster.stat(file_c);
  const LovEaEntry slot_a = a->lov_ea->stripes[0];
  const LovEaEntry slot_c = c->lov_ea->stripes[0];
  // Duplicate: a's object takes c's object's id.
  Inode* object_a = cluster.ost(slot_a.ost_index).image.find_by_fid(slot_a.stripe);
  cluster.ost(slot_a.ost_index).image.oi_erase(object_a->lma_fid);
  object_a->lma_fid = slot_c.stripe;

  RepairExecutor executor(cluster);
  const RepairOutcome outcome = executor.apply(
      {RepairKind::kOverwriteId, slot_c.stripe, slot_a.stripe, kNullFid,
       EdgeKind::kLovEa, /*owner_hint=*/file_a, ""});
  ASSERT_TRUE(outcome.applied);
  // The duplicate (pointing at file_a) was re-identified; c's object is
  // untouched and still resolvable.
  const Inode* restored =
      cluster.ost(slot_a.ost_index).image.find_by_fid_raw(slot_a.stripe);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->filter_fid->parent, file_a);
  const Inode* untouched =
      cluster.ost(slot_c.ost_index).image.find_by_fid(slot_c.stripe);
  ASSERT_NE(untouched, nullptr);
  EXPECT_EQ(untouched->filter_fid->parent, file_c);
}

TEST(RepairExecutorTest, AddBackPointerRestoresLinkEaWithName) {
  LustreCluster cluster(2);
  const Fid dir = cluster.mkdir(cluster.root(), "docs");
  Inode* inode = cluster.mdt().image.find_by_fid(dir);
  inode->link_ea.clear();

  RepairExecutor executor(cluster);
  const RepairOutcome outcome = executor.apply(
      {RepairKind::kAddBackPointer, dir, cluster.root(), kNullFid,
       EdgeKind::kLinkEa, kNullFid, ""});
  ASSERT_TRUE(outcome.applied);
  inode = cluster.mdt().image.find_by_fid(dir);
  ASSERT_EQ(inode->link_ea.size(), 1u);
  EXPECT_EQ(inode->link_ea[0].parent, cluster.root());
  EXPECT_EQ(inode->link_ea[0].name, "docs");  // recovered from DIRENT
}

TEST(RepairExecutorTest, AddBackPointerRestoresDirentWithName) {
  LustreCluster cluster(2);
  const Fid dir = cluster.mkdir(cluster.root(), "gone");
  Inode* root = cluster.mdt().image.find_by_fid(cluster.root());
  root->dirents.clear();

  RepairExecutor executor(cluster);
  const RepairOutcome outcome = executor.apply(
      {RepairKind::kAddBackPointer, cluster.root(), dir, kNullFid,
       EdgeKind::kDirent, kNullFid, ""});
  ASSERT_TRUE(outcome.applied);
  root = cluster.mdt().image.find_by_fid(cluster.root());
  ASSERT_EQ(root->dirents.size(), 1u);
  EXPECT_EQ(root->dirents[0].name, "gone");  // recovered from LinkEA
  EXPECT_EQ(root->dirents[0].fid, dir);
}

TEST(RepairExecutorTest, AddBackPointerRestoresFilterFidWithStripeIndex) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, -1});
  const Fid file = cluster.create_file(cluster.root(), "f", 2 * 64 * 1024);
  const LovEaEntry slot = cluster.stat(file)->lov_ea->stripes[1];
  Inode* object = cluster.ost(slot.ost_index).image.find_by_fid(slot.stripe);
  object->filter_fid.reset();

  RepairExecutor executor(cluster);
  const RepairOutcome outcome = executor.apply(
      {RepairKind::kAddBackPointer, slot.stripe, file, kNullFid,
       EdgeKind::kObjParent, kNullFid, ""});
  ASSERT_TRUE(outcome.applied);
  object = cluster.ost(slot.ost_index).image.find_by_fid(slot.stripe);
  ASSERT_TRUE(object->filter_fid.has_value());
  EXPECT_EQ(object->filter_fid->parent, file);
  EXPECT_EQ(object->filter_fid->stripe_index, 1u);
}

TEST(RepairExecutorTest, AddBackPointerIsIdempotent) {
  LustreCluster cluster(2);
  const Fid dir = cluster.mkdir(cluster.root(), "d");
  RepairExecutor executor(cluster);
  const RepairAction action{RepairKind::kAddBackPointer, dir, cluster.root(),
                            kNullFid, EdgeKind::kLinkEa, kNullFid, ""};
  EXPECT_TRUE(executor.apply(action).applied);
  EXPECT_TRUE(executor.apply(action).applied);
  EXPECT_EQ(cluster.stat(dir)->link_ea.size(), 1u);
}

TEST(RepairExecutorTest, RelinkPropertyReplacesLovSlot) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, 1});
  const Fid file = cluster.create_file(cluster.root(), "f", 1000);
  const Fid orphan = cluster.create_file(cluster.root(), "g", 1000);
  const Fid orphan_stripe = cluster.stat(orphan)->lov_ea->stripes[0].stripe;
  const Fid stale = cluster.stat(file)->lov_ea->stripes[0].stripe;

  RepairExecutor executor(cluster);
  const RepairOutcome outcome = executor.apply(
      {RepairKind::kRelinkProperty, file, orphan_stripe, stale,
       EdgeKind::kLovEa, kNullFid, ""});
  ASSERT_TRUE(outcome.applied);
  EXPECT_EQ(cluster.stat(file)->lov_ea->stripes[0].stripe, orphan_stripe);
}

TEST(RepairExecutorTest, RelinkFailsWhenStaleAbsent) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, 1});
  const Fid file = cluster.create_file(cluster.root(), "f", 1000);
  RepairExecutor executor(cluster);
  const RepairOutcome outcome = executor.apply(
      {RepairKind::kRelinkProperty, file, Fid{5, 5, 0}, Fid{6, 6, 0},
       EdgeKind::kLovEa, kNullFid, ""});
  EXPECT_FALSE(outcome.applied);
}

TEST(RepairExecutorTest, RemoveReferenceDropsOneInstance) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, 1});
  const Fid file = cluster.create_file(cluster.root(), "f", 1000);
  Inode* inode = cluster.mdt().image.find_by_fid(file);
  const LovEaEntry slot = inode->lov_ea->stripes[0];
  inode->lov_ea->stripes.push_back(slot);  // duplicate entry

  RepairExecutor executor(cluster);
  const RepairOutcome outcome = executor.apply(
      {RepairKind::kRemoveReference, file, slot.stripe, kNullFid,
       EdgeKind::kLovEa, kNullFid, ""});
  ASSERT_TRUE(outcome.applied);
  EXPECT_EQ(cluster.stat(file)->lov_ea->stripes.size(), 1u);
}

TEST(RepairExecutorTest, QuarantineMovesMdtObjectToLostFound) {
  LustreCluster cluster(2);
  const Fid dir = cluster.mkdir(cluster.root(), "victim");
  RepairExecutor executor(cluster);
  const RepairOutcome outcome = executor.apply(
      {RepairKind::kQuarantineLostFound, dir, kNullFid, kNullFid,
       EdgeKind::kGeneric, kNullFid, ""});
  ASSERT_TRUE(outcome.applied);
  // Gone from the root, present in lost+found.
  const Inode* root = cluster.stat(cluster.root());
  for (const auto& entry : root->dirents) EXPECT_NE(entry.fid, dir);
  const Inode* lf = cluster.stat(cluster.resolve("/.lustre/lost+found"));
  bool found = false;
  for (const auto& entry : lf->dirents) {
    if (entry.fid == dir) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(RepairExecutorTest, QuarantineStubsOstOrphan) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, 1});
  const Fid file = cluster.create_file(cluster.root(), "f", 1000);
  const LovEaEntry slot = cluster.stat(file)->lov_ea->stripes[0];
  // Orphan the object: drop the file's claim.
  cluster.mdt().image.find_by_fid(file)->lov_ea->stripes.clear();

  RepairExecutor executor(cluster);
  const RepairOutcome outcome = executor.apply(
      {RepairKind::kQuarantineLostFound, slot.stripe, kNullFid, kNullFid,
       EdgeKind::kGeneric, kNullFid, ""});
  ASSERT_TRUE(outcome.applied);
  // A stub file in lost+found now owns the object.
  const Inode* object =
      cluster.ost(slot.ost_index).image.find_by_fid(slot.stripe);
  ASSERT_TRUE(object->filter_fid.has_value());
  const Inode* stub = cluster.stat(object->filter_fid->parent);
  ASSERT_NE(stub, nullptr);
  ASSERT_TRUE(stub->lov_ea.has_value());
  EXPECT_EQ(stub->lov_ea->stripes[0].stripe, slot.stripe);
}

TEST(RepairExecutorTest, ApplyAllReportsPerActionOutcomes) {
  LustreCluster cluster(2);
  const Fid dir = cluster.mkdir(cluster.root(), "d");
  RepairExecutor executor(cluster);
  const RepairPlan plan = {
      {RepairKind::kAddBackPointer, dir, cluster.root(), kNullFid,
       EdgeKind::kLinkEa, kNullFid, ""},
      {RepairKind::kOverwriteId, Fid{9, 9, 9}, Fid{1, 1, 1}, kNullFid,
       EdgeKind::kGeneric, kNullFid, ""},
  };
  const auto outcomes = executor.apply_all(plan);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].applied);
  EXPECT_FALSE(outcomes[1].applied);
}

// The claimant index (DESIGN.md §5) answers every "who carries this
// LMA" question within one apply_all. Each test below fails if the
// index misses one of the executor's own edits, or outlives its call.

RepairAction quarantine_of(const Fid& target) {
  return {RepairKind::kQuarantineLostFound, target, kNullFid, kNullFid,
          EdgeKind::kGeneric, kNullFid, ""};
}

RepairAction overwrite(const Fid& target, const Fid& value) {
  return {RepairKind::kOverwriteId, target, value, kNullFid,
          EdgeKind::kGeneric, kNullFid, ""};
}

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

TEST(RepairExecutorTest, SecondQuarantineOfSharedFidSeesReidentification) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, 1});
  const Fid file_a = cluster.create_file(cluster.root(), "a", 1000);
  const Fid file_c = cluster.create_file(cluster.root(), "c", 1000);
  const LovEaEntry slot_a = cluster.stat(file_a)->lov_ea->stripes[0];
  const LovEaEntry slot_c = cluster.stat(file_c)->lov_ea->stripes[0];
  LdiskfsImage& image_a = cluster.ost(slot_a.ost_index).image;
  LdiskfsImage& image_c = cluster.ost(slot_c.ost_index).image;
  const std::uint64_t ino_a = image_a.find_by_fid(slot_a.stripe)->ino;
  const std::uint64_t ino_c = image_c.find_by_fid(slot_c.stripe)->ino;
  // a's object takes c's id; only c's OI entry still resolves it.
  image_a.oi_erase(slot_a.stripe);
  image_a.find(ino_a)->lma_fid = slot_c.stripe;

  const auto outcomes = RepairExecutor(cluster).apply_all(
      {quarantine_of(slot_c.stripe), quarantine_of(slot_c.stripe)});
  ASSERT_EQ(outcomes.size(), 2u);
  // The OI finds c's object first; two carriers, so it is re-identified.
  EXPECT_TRUE(outcomes[0].applied);
  EXPECT_TRUE(starts_with(outcomes[0].detail, "orphan re-identified as "))
      << outcomes[0].detail;
  // Now the OI misses and a's object is the one carrier left.
  EXPECT_TRUE(outcomes[1].applied);
  EXPECT_EQ(outcomes[1].detail, "orphan object stubbed into lost+found");
  EXPECT_NE(image_c.find(ino_c)->lma_fid, slot_c.stripe);
  const Inode* kept = image_a.find(ino_a);
  EXPECT_EQ(kept->lma_fid, slot_c.stripe);
  ASSERT_TRUE(kept->filter_fid.has_value());
  const Inode* stub = cluster.stat(kept->filter_fid->parent);
  ASSERT_NE(stub, nullptr);
  EXPECT_EQ(stub->lov_ea->stripes[0].stripe, slot_c.stripe);
}

TEST(RepairExecutorTest, QuarantineAfterOverwriteCountsTheNewCarrier) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, 1});
  const Fid file_a = cluster.create_file(cluster.root(), "a", 1000);
  const Fid file_c = cluster.create_file(cluster.root(), "c", 1000);
  const LovEaEntry slot_a = cluster.stat(file_a)->lov_ea->stripes[0];
  const LovEaEntry slot_c = cluster.stat(file_c)->lov_ea->stripes[0];
  // lost+found exists up front, so nothing in the plan rebuilds the
  // index between the two actions.
  (void)cluster.lost_found();

  const auto outcomes = RepairExecutor(cluster).apply_all(
      {overwrite(slot_a.stripe, slot_c.stripe), quarantine_of(slot_c.stripe)});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].applied) << outcomes[0].detail;
  // Two objects now carry c's id: the quarantined one must be
  // re-identified, not stubbed under the shared id.
  EXPECT_TRUE(outcomes[1].applied);
  EXPECT_TRUE(starts_with(outcomes[1].detail, "orphan re-identified as "))
      << outcomes[1].detail;
}

TEST(RepairExecutorTest, OiMissFindsTheObjectByItsLma) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, 1});
  const Fid file = cluster.create_file(cluster.root(), "f", 1000);
  const Fid other = cluster.create_file(cluster.root(), "g", 1000);
  const LovEaEntry slot = cluster.stat(file)->lov_ea->stripes[0];
  LdiskfsImage& image = cluster.ost(slot.ost_index).image;
  Inode* object = image.find_by_fid(slot.stripe);
  const std::uint64_t ino = object->ino;
  // Rewrite the LMA behind the OI, and lose the point-back.
  const Fid moved{slot.stripe.seq, slot.stripe.oid, 1};
  image.oi_erase(slot.stripe);
  object->lma_fid = moved;
  object->filter_fid.reset();

  const auto outcomes = RepairExecutor(cluster).apply_all({
      {RepairKind::kAddBackPointer, moved, file, kNullFid,
       EdgeKind::kObjParent, kNullFid, ""},
      {RepairKind::kRelinkProperty, moved, other, file, EdgeKind::kObjParent,
       kNullFid, ""},
  });
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].detail, "filter_fid restored");
  EXPECT_EQ(outcomes[1].detail, "filter_fid relinked");
  ASSERT_TRUE(image.find(ino)->filter_fid.has_value());
  EXPECT_EQ(image.find(ino)->filter_fid->parent, other);
}

TEST(RepairExecutorTest, IndexFollowsLostFoundCreationOnTwoMdts) {
  struct Namespace {
    LustreCluster cluster{2, StripePolicy{64 * 1024, 1}, 2};
    Fid dir;
    Fid object_a;
    Fid object_b;
  };
  const auto build = [] {
    Namespace ns;
    ns.dir = ns.cluster.mkdir(ns.cluster.root(), "d");
    (void)ns.cluster.mkdir(ns.cluster.root(), "e");  // next mkdir: MDT 0
    const Fid a = ns.cluster.create_file(ns.cluster.root(), "a", 1000);
    const Fid b = ns.cluster.create_file(ns.cluster.root(), "b", 1000);
    ns.object_a = ns.cluster.stat(a)->lov_ea->stripes[0].stripe;
    ns.object_b = ns.cluster.stat(b)->lov_ea->stripes[0].stripe;
    return ns;
  };
  // A twin learns the ids the plan will mint: the directories
  // lost_found() creates, and the stub for a's object.
  Namespace twin = build();
  (void)RepairExecutor(twin.cluster)
      .apply_all({overwrite(twin.dir, Fid{0x777, 1, 0}),
                  quarantine_of(twin.object_a)});
  const Fid dot_lustre = twin.cluster.resolve("/.lustre");
  const Fid lost_found = twin.cluster.resolve("/.lustre/lost+found");
  const Fid stub_a = twin.cluster.resolve("/.lustre/lost+found/lfobj_" +
                                          twin.object_a.to_string());
  // The new directories land on both MDTs, stubs on the second.
  ASSERT_EQ(twin.cluster.mdt_for(dot_lustre), &twin.cluster.mdt_server(0));
  ASSERT_EQ(twin.cluster.mdt_for(lost_found), &twin.cluster.mdt_server(1));

  Namespace ns = build();
  const auto outcomes = RepairExecutor(ns.cluster).apply_all({
      overwrite(ns.dir, Fid{0x777, 1, 0}),  // builds the index
      quarantine_of(ns.object_a),           // creates lost+found
      overwrite(dot_lustre, Fid{0x777, 2, 0}),
      quarantine_of(ns.object_b),
      overwrite(stub_a, Fid{0x777, 3, 0}),
  });
  ASSERT_EQ(outcomes.size(), 5u);
  for (const RepairOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.applied) << outcome.detail;
  }
  const Inode* renamed_dir = ns.cluster.stat(Fid{0x777, 2, 0});
  ASSERT_NE(renamed_dir, nullptr);
  EXPECT_EQ(renamed_dir->type, InodeType::kDirectory);
  const Inode* renamed_stub =
      ns.cluster.mdt_server(1).image.find_by_fid(Fid{0x777, 3, 0});
  ASSERT_NE(renamed_stub, nullptr);
  EXPECT_EQ(renamed_stub->lov_ea->stripes[0].stripe, ns.object_a);
}

TEST(RepairExecutorTest, EachCallSeesRawEditsMadeBeforeIt) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, 1});
  const Fid file = cluster.create_file(cluster.root(), "f", 1000);
  const Fid other = cluster.create_file(cluster.root(), "g", 1000);
  RepairExecutor executor(cluster);
  EXPECT_TRUE(executor.apply(overwrite(other, Fid{0x777, 1, 0})).applied);
  // Between calls, move f's LMA behind the OI's back.
  Inode* inode = cluster.mdt().image.find_by_fid(file);
  cluster.mdt().image.oi_erase(file);
  const Fid moved{0x777, 2, 0};
  inode->lma_fid = moved;

  const RepairOutcome outcome = executor.apply(overwrite(moved, file));
  EXPECT_TRUE(outcome.applied) << outcome.detail;
  EXPECT_EQ(cluster.mdt().image.find_by_fid(file), inode);
}

}  // namespace
}  // namespace faultyrank
