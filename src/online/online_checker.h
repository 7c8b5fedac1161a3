// Online FaultyRank (the paper's §VI/§VIII future work, implemented).
//
// The offline prototype must unmount the filesystem and rescan every
// server per check. The online checker removes both costs:
//
//   1. bootstrap()  — one full scrub of every server seeds the mutable
//                     metadata graph and positions the changelog
//                     cursor. Done once, ideally at mount time.
//   2. catch_up()   — consumes new changelog records; logical namespace
//                     churn (mkdir/create/unlink) updates the graph in
//                     place, no rescan.
//   3. scrub_step() — raw corruption never reaches the changelog, so a
//                     background scrubber re-reads a small batch of
//                     inodes per step, round-robin over every server,
//                     refreshing their graph entries with the records
//                     an offline scan emits (inode_records). A
//                     corrupted EA becomes visible to the next check as
//                     soon as its inode is scrubbed.
//   4. check()      — freezes the graph and runs the FaultyRank
//                     iterations + detector on the snapshot, entirely
//                     in DRAM, while the filesystem stays mounted.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/detector.h"
#include "core/faultyrank.h"
#include "core/propagation_plan.h"
#include "online/mutable_graph.h"
#include "pfs/cluster.h"

namespace faultyrank {

struct OnlineCheckerConfig {
  FaultyRankConfig rank;
  /// Mean-normalized conviction threshold (see DetectorConfig).
  double detection_threshold = 0.4;
  /// Inodes re-read per scrub_step().
  std::size_t scrub_batch = 64;
  /// Seed each check's iteration with the previous check's converged
  /// ranks (new vertices start at the uniform value): the fixpoint of a
  /// slightly-changed graph is close, so iterations drop.
  bool warm_start = true;
  /// Optional worker pool for freeze aggregation, plan construction,
  /// and the rank iteration. Borrowed; must outlive the checker.
  ThreadPool* pool = nullptr;
};

struct OnlineCheckResult {
  FaultyRankResult ranks;
  DetectionReport report;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t unpaired_edges = 0;
  double freeze_wall_seconds = 0.0;
  double rank_wall_seconds = 0.0;
  /// True when this check ran on the cached snapshot + PropagationPlan
  /// of a previous check (no mutations since), skipping the freeze and
  /// plan build entirely.
  bool plan_reused = false;
};

class OnlineChecker {
 public:
  /// The cluster must have a changelog attached before any mutations
  /// the checker is expected to track.
  explicit OnlineChecker(LustreCluster& cluster,
                         OnlineCheckerConfig config = {});

  /// Resets the mutable graph and scrub state, runs full_scrub() to read
  /// every server into it, then positions the changelog cursor at the
  /// log's current end and the scrub cursor at the first slot.
  void bootstrap();

  /// Applies every changelog record since the last call (or since
  /// bootstrap). Returns how many records were applied.
  std::size_t catch_up();

  /// Re-scans the next `scrub_batch` raw inode slots (round-robin over
  /// MDT and OSTs), refreshing their graph entries. Returns the number
  /// of live inodes refreshed.
  std::size_t scrub_step();

  /// Scrubs every inode slot once, server by server in cluster slot
  /// order. Leaves the scrub_step() cursor where it was.
  void full_scrub();

  /// Freeze + rank + detect on the current graph.
  [[nodiscard]] OnlineCheckResult check();

  [[nodiscard]] const MutableMetadataGraph& graph() const { return graph_; }

 private:
  /// A raw inode slot (server index, 1-based ino) observed to carry a
  /// given identity. Several slots can claim the same fid — that is
  /// exactly the Double Reference / duplicate-id corruption — and the
  /// graph vertex must then hold the *union* of all claimants' edges,
  /// matching what the offline merge of per-inode partial graphs
  /// produces. A fid-keyed overwrite would collapse the claimants and
  /// destroy the duplicate-id evidence.
  struct SlotRef {
    std::size_t server = 0;
    std::uint64_t ino = 0;
  };

  void apply(const ChangeRecord& record);
  /// Re-materializes a changelog-record endpoint the graph no longer
  /// knows (retired by the scrubber after id corruption, then restored
  /// by a raw repair that bypasses the changelog).
  void ensure_vertex(const Fid& fid, ObjectKind kind);
  void add_claim(const Fid& fid, std::size_t server, std::uint64_t ino);
  void drop_claim(const Fid& fid, std::size_t server, std::uint64_t ino);
  /// Rebuilds `fid`'s graph entry from every slot still claiming it
  /// (pruning stale claims); removes the vertex when no claims remain.
  void refresh_identity(const Fid& fid);
  /// Refreshes one raw inode slot on cluster slot `server`. Returns
  /// true if a live inode was refreshed.
  bool scrub_slot(std::size_t server, std::uint64_t ino);

  LustreCluster& cluster_;
  OnlineCheckerConfig config_;
  MutableMetadataGraph graph_;
  std::uint64_t cursor_ = 0;

  // check() cache: the frozen snapshot and its PropagationPlan, valid
  // while the mutable graph's generation is unchanged. The plan borrows
  // the snapshot, so it is reset first whenever the snapshot is
  // replaced.
  std::optional<UnifiedGraph> snapshot_;
  std::optional<PropagationPlan> plan_;
  std::uint64_t snapshot_generation_ = 0;

  // Scrub state: a moving (server, ino) position plus the fid each slot
  // carried when last read, so id corruption shows up as
  // remove-old + insert-new.
  std::size_t scrub_server_ = 0;
  std::uint64_t scrub_ino_ = 1;
  std::vector<std::vector<Fid>> last_seen_;  // [server][ino-1]
  // Which raw slots currently claim each identity (normally exactly
  // one; duplicate-id corruption makes it several).
  std::unordered_map<Fid, std::vector<SlotRef>, FidHash> claimants_;

  // The previous check's converged ranks for warm starts, indexed by the
  // GIDs of snapshot_ (the snapshot that check ran on).
  std::vector<double> last_id_rank_;
  std::vector<double> last_prop_rank_;
};

}  // namespace faultyrank
