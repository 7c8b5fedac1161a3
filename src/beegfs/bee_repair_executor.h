// Applies detector repairs to the BeeGFS substrate: translates the
// detector's FID-level actions into dentry/xattr/chunk-file writes.
// run_checker(BeeCluster&) drives it exactly as the Lustre overload
// drives RepairExecutor.
#pragma once

#include <vector>

#include "beegfs/bee_cluster.h"
#include "core/repair.h"

namespace faultyrank {

/// Applies detector repairs to a BeeGFS cluster.
class BeeRepairExecutor {
 public:
  explicit BeeRepairExecutor(BeeCluster& cluster) : cluster_(cluster) {}

  RepairOutcome apply(const RepairAction& action);
  std::vector<RepairOutcome> apply_all(const RepairPlan& plan);

 private:
  /// Which storage target a chunk-identity fid lives on, or -1. Both a
  /// chunk's identity and its quarantine identity (a chunk file whose
  /// name is not an entry id) name their target.
  [[nodiscard]] int target_of(const Fid& fid) const;
  [[nodiscard]] BeeChunkFile* find_chunk(const Fid& identity);

  RepairOutcome add_back_pointer(const RepairAction& action);
  RepairOutcome overwrite_id(const RepairAction& action);
  RepairOutcome relink_property(const RepairAction& action);
  RepairOutcome remove_reference(const RepairAction& action);
  RepairOutcome quarantine(const RepairAction& action);

  BeeCluster& cluster_;
};

}  // namespace faultyrank
