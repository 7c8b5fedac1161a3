// End-to-end FaultyRank checking for the BeeGFS substrate: the same
// rank kernel and detector as the Lustre pipeline, with a BeeGFS-aware
// repair executor translating the detector's FID-level actions into
// dentry/xattr/chunk-file writes.
#pragma once

#include <vector>

#include "beegfs/bee_cluster.h"
#include "beegfs/bee_scanner.h"
#include "core/detector.h"
#include "core/faultyrank.h"

namespace faultyrank {

/// Applies detector repairs to a BeeGFS cluster.
class BeeRepairExecutor {
 public:
  explicit BeeRepairExecutor(BeeCluster& cluster) : cluster_(cluster) {}

  RepairOutcome apply(const RepairAction& action);
  std::vector<RepairOutcome> apply_all(const RepairPlan& plan);

 private:
  /// Which storage target a chunk-identity fid lives on, or -1.
  [[nodiscard]] int target_of(const Fid& fid) const;
  [[nodiscard]] BeeChunkFile* find_chunk(const Fid& identity);

  RepairOutcome add_back_pointer(const RepairAction& action);
  RepairOutcome overwrite_id(const RepairAction& action);
  RepairOutcome relink_property(const RepairAction& action);
  RepairOutcome remove_reference(const RepairAction& action);
  RepairOutcome quarantine(const RepairAction& action);

  BeeCluster& cluster_;
};

struct BeeCheckerConfig {
  FaultyRankConfig rank;
  double detection_threshold = 0.4;
  bool apply_repairs = false;
  bool verify_after_repair = false;
};

struct BeeCheckResult {
  FaultyRankResult ranks;
  DetectionReport report;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t unpaired_edges = 0;
  std::vector<RepairOutcome> repair_outcomes;
  std::size_t repairs_applied = 0;
  bool verified_consistent = false;
};

[[nodiscard]] BeeCheckResult run_bee_checker(BeeCluster& cluster,
                                             const BeeCheckerConfig& config = {});

}  // namespace faultyrank
