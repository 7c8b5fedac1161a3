// A rule-based baseline checker modelled on Lustre's LFSCK.
//
// Implements the fixed decision rules the paper's Table I documents —
// MDS-side metadata always wins, unexplainable objects go to
// lost+found, and a sequential per-inode scan that can neither see
// duplication nor consider "a's side" root causes:
//
//   Phase 1 (layout, cf. lfsck_layout):
//     * LOVEA slot whose object is missing      → re-create an empty
//       OST object with the expected id ("MDS is right")
//     * object whose filter_fid mismatches      → overwrite from MDS
//     * OST object no file claims               → stub into lost+found
//   Phase 2 (namespace, cf. lfsck_namespace):
//     * DIRENT whose child id resolves nowhere  → drop the entry
//     * child whose LinkEA misses the parent    → rebuild from DIRENT
//     * MDT object no directory names           → move to lost+found
//
// The cost model reproduces the paper's §V-C2 analysis of why LFSCK is
// slow: per-inode processing with a synchronous MDS↔OSS verification
// RPC per referenced object, all serialized through closely-coupled
// pipeline stages (the stall factor). Its four costs are constants in
// lfsck.cpp, calibrated against Table VI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pfs/cluster.h"

namespace faultyrank {

enum class LfsckActionKind : std::uint8_t {
  kRecreateOstObject,     ///< dangling LOVEA slot: made an empty object
  kOverwriteFilterFid,    ///< mismatch: OST point-back rewritten from MDS
  kOrphanToLostFound,     ///< unclaimed OST object stubbed to lost+found
  kRemoveDanglingDirent,  ///< DIRENT entry resolving nowhere dropped
  kRebuildLinkEa,         ///< LinkEA rebuilt from the parent's DIRENT
  kMdtOrphanToLostFound,  ///< unnamed MDT object moved to lost+found
  kSkipped,               ///< observed but not repairable by the rules
};

[[nodiscard]] constexpr const char* to_string(LfsckActionKind k) noexcept {
  switch (k) {
    case LfsckActionKind::kRecreateOstObject: return "recreate-ost-object";
    case LfsckActionKind::kOverwriteFilterFid: return "overwrite-filter-fid";
    case LfsckActionKind::kOrphanToLostFound: return "orphan-to-lost+found";
    case LfsckActionKind::kRemoveDanglingDirent: return "remove-dangling-dirent";
    case LfsckActionKind::kRebuildLinkEa: return "rebuild-linkea";
    case LfsckActionKind::kMdtOrphanToLostFound: return "mdt-orphan-to-lost+found";
    case LfsckActionKind::kSkipped: return "skipped";
  }
  return "?";
}

struct LfsckEvent {
  LfsckActionKind kind = LfsckActionKind::kSkipped;
  Fid subject;        ///< object acted upon
  Fid related;        ///< counterpart (owner / parent / expected id)
  std::string detail;
};

struct LfsckConfig {
  bool repair = true;  ///< false = dry run (report only)
};

struct LfsckResult {
  std::vector<LfsckEvent> events;
  std::uint64_t inodes_checked = 0;
  std::uint64_t rpcs_issued = 0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;

  [[nodiscard]] std::size_t count(LfsckActionKind kind) const;
};

/// Runs both LFSCK phases against the cluster.
[[nodiscard]] LfsckResult run_lfsck(LustreCluster& cluster,
                                    const LfsckConfig& config = {});

}  // namespace faultyrank
