// The MDS-side aggregator (paper §IV-B).
//
// Every OSS scanner ships its partial graph to the MDS in one bulk
// transfer, serialized through the real wire format (the bytes are
// actually encoded, not just counted). The merge reads each shipped
// partial in place from those bytes, through a validated
// PartialGraphView, with no decoded copy; the MDS partial graph joins
// locally, merged where its scan left it. The aggregator merges all
// partial graphs, remaps 128-bit FIDs to dense GIDs, and builds the
// forward + reversed CSR with the pairing analysis — everything
// FaultyRank needs. Each partial crosses into the unified graph once
// and is released: an OSS partial as soon as it is encoded, the MDS
// partial once the merge is done (DESIGN.md §7).
//
// One entry point, aggregate(), takes a finished cluster scan; a check
// calls scan_cluster and then aggregate() (checker/checker.cpp).
//
// Virtual-time attribution is pipelined (pure arithmetic over the
// per-scanner sim times): transfers serialize on the MDS ingress link,
// but each starts as soon as its scanner finishes, not after the
// slowest scanner.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/sim_clock.h"
#include "common/thread_pool.h"
#include "graph/coverage.h"
#include "graph/unified_graph.h"
#include "scanner/scanner.h"

namespace faultyrank {

struct AggregationResult {
  UnifiedGraph graph;
  /// Virtual network time of the transfers alone, summed back to back
  /// (latency counted once per transfer). Kept for the non-overlapped
  /// accounting; the pipelined number below is what Table VI uses.
  double sim_transfer_seconds = 0.0;
  /// Virtual finish time of the overlapped scan→transfer stage: each
  /// OSS transfer starts when its scanner completes, transfers
  /// serialize on the MDS ingress link in scanner-completion order, and
  /// the stage ends when both the slowest scanner and the last transfer
  /// are done. Always ≤ slowest-scan + sim_transfer_seconds.
  double sim_pipeline_seconds = 0.0;
  /// Measured time for encode + merge (FID remap, CSR build, pairing).
  double wall_seconds = 0.0;
  std::uint64_t transferred_bytes = 0;
  /// What fraction of servers contributed, which FID spaces were lost
  /// to failed scans (filled by the caller, which knows the cluster:
  /// run_checker's Lustre pass), and which individual inodes were
  /// quarantined.
  CoverageInfo coverage;
};

/// Aggregates a finished cluster scan into the unified graph, and
/// consumes the partial graphs it merges: once it returns, every
/// surviving scan's graph holds no records (its server name stays).
/// Nothing else in `scans` changes, and a failed slot is not touched,
/// so a caller that needs a partial graph afterwards copies the scan
/// first. The pool, if given, encodes remote partials concurrently and
/// parallelizes the merge; results are byte-identical to the serial
/// path. Scans with status kFailed are excluded from the graph and the
/// transfer accounting; coverage reflects the surviving fraction (lost
/// FID sequences cannot be derived from scan results alone; the caller
/// adds them with CoverageInfo::add_lost_sequence).
[[nodiscard]] AggregationResult aggregate(std::span<ScanResult> scans,
                                          const NetModel& net = {},
                                          ThreadPool* pool = nullptr);

}  // namespace faultyrank
