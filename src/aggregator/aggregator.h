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
// Two entry points, one encode + merge path:
//   * aggregate()          — takes a finished cluster scan.
//   * scan_and_aggregate() — runs the scanners itself (scan_servers, the
//     loop scan_cluster uses), checkpointing each completed scan, then
//     hands the whole scan to aggregate().
//
// Virtual-time attribution is pipelined (pure arithmetic over the
// per-scanner sim times): transfers serialize on the MDS ingress link,
// but each starts as soon as its scanner finishes, not after the
// slowest scanner.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/thread_pool.h"
#include "graph/coverage.h"
#include "graph/unified_graph.h"
#include "scanner/scanner.h"

namespace faultyrank {

/// Raised by the interrupt_after_servers test hook after the checkpoint
/// has been flushed — the caller resumes by re-running with the same
/// checkpoint_path.
class PipelineInterrupted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

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
  /// to failed scans (filled by the pipeline entry point, which knows
  /// the cluster), and which individual inodes were quarantined.
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
/// FID sequences cannot be derived from scan results alone — use the
/// pipeline entry point for that).
[[nodiscard]] AggregationResult aggregate(std::span<ScanResult> scans,
                                          const NetModel& net = {},
                                          ThreadPool* pool = nullptr);

/// Everything the fault-tolerant pipeline can be asked to do beyond a
/// plain scan: operational faults to inject, retry budget, and
/// checkpointing. A failed server always degrades the run: it is
/// dropped from the graph and named in PipelineResult::failed_servers.
struct PipelineConfig {
  ThreadPool* pool = nullptr;
  DiskModel mdt_disk = DiskModel::ssd();
  DiskModel ost_disk = DiskModel::hdd();
  NetModel net;
  /// Operational fault schedule; nullptr scans fault-free.
  OpFaultSchedule* faults = nullptr;
  RetryPolicy retry;
  /// Non-empty: load this checkpoint if present (resuming completed
  /// scans), and save after each completed scan. The write is atomic.
  std::string checkpoint_path;
  /// Cluster-content fingerprint stamped into saved checkpoints (e.g.
  /// the changelog cursor at scan start). A checkpoint on disk whose
  /// epoch differs is *discarded* instead of resumed: its scans were
  /// taken against older content, and prefilling them would silently
  /// merge two points in time into one graph (phantom findings at every
  /// edge into the stale region). See ScanCheckpoint::epoch.
  std::uint64_t checkpoint_epoch = 0;
  /// Test hook: after this many newly completed scans, flush the
  /// checkpoint and throw PipelineInterrupted — a deterministic stand-in
  /// for killing the aggregator mid-run.
  std::size_t interrupt_after_servers = std::numeric_limits<std::size_t>::max();
};

/// Scan→aggregate pipeline (paper §IV-B).
struct PipelineResult {
  ClusterScan scan;
  AggregationResult agg;
  /// Labels of servers whose scan failed (crash, deadline, or an
  /// unexpected error), in slot order. Empty on a full-coverage run.
  std::vector<std::string> failed_servers;
  /// How many slots were prefilled from the checkpoint instead of
  /// being rescanned.
  std::size_t servers_resumed = 0;
  /// A checkpoint existed but carried a different epoch (the cluster
  /// mutated since it was written), so it was ignored and every server
  /// rescanned.
  bool checkpoint_discarded = false;
};

/// Scans every server not restored from the checkpoint (on the pool,
/// one task group per server), then aggregates the whole scan with
/// aggregate(). The graph and all virtual-time numbers are identical
/// for any pool size.
///
/// Fault tolerance: a server crash or blown deadline never aborts the
/// run — the survivors' partials form the unified graph, and
/// agg.coverage and failed_servers record exactly what was lost. With a
/// checkpoint path, completed scans persist across interruptions in
/// slot order, so an interrupted run leaves the same checkpoint with or
/// without a pool, and a resumed run reproduces the uninterrupted run's
/// ranks bit for bit (scanners, fault schedules and aggregation are all
/// deterministic).
[[nodiscard]] PipelineResult scan_and_aggregate(const LustreCluster& cluster,
                                                const PipelineConfig& config);

}  // namespace faultyrank
