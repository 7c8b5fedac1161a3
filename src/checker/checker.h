// End-to-end FaultyRank checker (paper Fig. 6): scan every server in
// parallel → aggregate partial graphs on the MDS → run the FaultyRank
// iterations → detect + attribute inconsistencies → (optionally) apply
// the recommended repairs and verify by re-scanning.
//
// One checker for both backends (paper §VI): a Lustre and a BeeGFS
// check differ only in their scanners and repair executors. Both merge
// through aggregate() and share the rank → detect tail and the
// repair → verify tail.
//
// The timing breakdown matches Table VI's three columns:
//   T_scan  — parallel per-server metadata scanning
//   T_graph — transfer + merge + FID remap + CSR build
//   T_FR    — FaultyRank iterations + detection
#pragma once

#include <cstdint>

#include "aggregator/aggregator.h"
#include "beegfs/bee_cluster.h"
#include "checker/repair_executor.h"
#include "core/detector.h"
#include "core/faultyrank.h"
#include "pfs/cluster.h"

namespace faultyrank {

struct CheckerConfig {
  FaultyRankConfig rank;
  /// Mean-normalized conviction threshold (see DetectorConfig).
  double detection_threshold = 0.4;
  DiskModel mdt_disk = DiskModel::ssd();
  DiskModel ost_disk = DiskModel::hdd();
  NetModel net;
  ThreadPool* pool = nullptr;
  /// Apply the recommended repairs to the cluster.
  bool apply_repairs = false;
  /// Capture a full pre-repair snapshot into CheckerResult::undo_image
  /// before mutating anything (e2fsck-undo-file style); restore it with
  /// deserialize_cluster to roll every repair back. Lustre only.
  bool capture_undo = false;
  /// After repairing, re-scan and re-check to confirm convergence to a
  /// consistent state (counts as a second full pass; not timed into the
  /// Table VI breakdown).
  bool verify_after_repair = false;
  /// Operational fault schedule for the scan phase; nullptr scans
  /// fault-free. With faults, the check runs in degraded mode: a
  /// crashed server reduces coverage instead of aborting, and findings
  /// whose evidence was lost come back unverifiable. Lustre only.
  OpFaultSchedule* faults = nullptr;
};

struct CheckerTimings {
  double t_scan_sim = 0.0;
  /// Virtual transfer time that could NOT be hidden behind the scans:
  /// the pipelined scan→transfer finish time minus the slowest scanner
  /// (transfers stream to the MDS as each scanner completes, so most of
  /// the wire time overlaps scanning — DESIGN.md §7).
  double t_graph_sim = 0.0;
  double t_graph_wall = 0.0;  ///< encode + merge + remap + CSR build (measured)
  double t_fr_wall = 0.0;     ///< iterations + detection (measured)

  /// End-to-end virtual seconds: virtual I/O legs plus measured compute
  /// (compute is real on both the paper's testbed and here).
  [[nodiscard]] double total_sim() const noexcept {
    return t_scan_sim + t_graph_sim + t_graph_wall + t_fr_wall;
  }
};

struct CheckerResult {
  FaultyRankResult ranks;
  DetectionReport report;
  CheckerTimings timings;

  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t unpaired_edges = 0;
  std::uint64_t inodes_scanned = 0;

  std::vector<RepairOutcome> repair_outcomes;
  std::size_t repairs_applied = 0;
  /// Pre-repair snapshot (empty unless capture_undo was set and repairs
  /// were about to be applied).
  std::vector<std::uint8_t> undo_image;
  /// Set when verify_after_repair ran: true iff the re-check found a
  /// fully consistent filesystem.
  bool verified_consistent = false;

  /// Scan coverage this check actually achieved (1.0 = every server).
  CoverageInfo coverage;
  /// Servers whose scan failed (crash or deadline), in slot order.
  std::vector<std::string> failed_servers;
};

/// Runs the complete pipeline against `cluster`.
[[nodiscard]] CheckerResult run_checker(LustreCluster& cluster,
                                        const CheckerConfig& config = {});

/// Runs the same pipeline against a BeeGFS cluster. The meta server
/// scans with mdt_disk and is local to the aggregator; the storage
/// targets scan with ost_disk and ship their partials over `net`.
/// BeeGFS models neither `faults` nor `capture_undo`: either one set
/// throws std::invalid_argument naming it, before anything is scanned.
[[nodiscard]] CheckerResult run_checker(BeeCluster& cluster,
                                        const CheckerConfig& config = {});

}  // namespace faultyrank
