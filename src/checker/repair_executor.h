// Applies detector-recommended repairs to the simulated cluster
// (paper §III-F: "if one node's property is wrong, we find the
// corresponding unpaired node and use its id to overwrite the property;
// if one node's id is wrong … use its property to overwrite the id").
//
// The executor works at the raw-image level: it may need to find an
// object by a *corrupted* LMA fid the OI has never heard of, or count
// every object that carries one fid. Both questions go to a claimant
// index (LMA fid → the inodes carrying it, DESIGN.md §5) that one
// apply_all builds once and keeps exact across its own LMA writes, and
// every mutation keeps the OI coherent afterwards.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/repair.h"
#include "pfs/cluster.h"

namespace faultyrank {

class RepairExecutor {
 public:
  explicit RepairExecutor(LustreCluster& cluster);
  ~RepairExecutor();

  /// Applies one action: apply_all({action}).front().
  RepairOutcome apply(const RepairAction& action);

  /// Applies the plan in order; never throws on a bad action — failures
  /// come back as applied=false with a reason. The claimant index is
  /// built by the first action that needs it and freed on return, so
  /// edits made to the cluster between calls are always seen.
  std::vector<RepairOutcome> apply_all(const RepairPlan& plan);

 private:
  class ClaimantIndex;

  struct Located {
    LdiskfsImage* image = nullptr;
    Inode* inode = nullptr;
    bool on_mdt = false;
    std::uint32_t ost_index = 0;
    /// Cluster slot (LustreCluster::image).
    std::size_t server = 0;
  };

  [[nodiscard]] Located located(std::size_t server, Inode& inode);
  /// The index for this apply_all, built on first use.
  [[nodiscard]] ClaimantIndex& claimant_index();
  /// The inode an index entry names.
  [[nodiscard]] Located carrier(std::uint64_t claimant);
  /// The executor's only LMA write; keeps a built index exact.
  void set_lma(std::size_t server, Inode& inode, const Fid& fid);

  /// Finds the inode currently carrying `fid` on any server, trying the
  /// OIs first and falling back to the claimant index.
  [[nodiscard]] std::optional<Located> locate(const Fid& fid);

  RepairOutcome dispatch(const RepairAction& action);
  RepairOutcome overwrite_id(const RepairAction& action);
  RepairOutcome add_back_pointer(const RepairAction& action);
  RepairOutcome relink_property(const RepairAction& action);
  RepairOutcome remove_reference(const RepairAction& action);
  RepairOutcome quarantine(const RepairAction& action);

  LustreCluster& cluster_;
  std::unique_ptr<ClaimantIndex> index_;  ///< null outside apply_all
  std::size_t quarantines_ = 0;           ///< in the plan being applied
};

}  // namespace faultyrank
