#include "scanner/scanner.h"

#include <algorithm>

namespace faultyrank {

const char* to_string(ScanStatus status) noexcept {
  switch (status) {
    case ScanStatus::kComplete: return "complete";
    case ScanStatus::kDegraded: return "degraded";
    case ScanStatus::kFailed: return "failed";
  }
  return "unknown";
}

namespace {

// The inode-table slot size charged per raw read (matches
// LdiskfsImage::inode_table_bytes()).
constexpr std::uint64_t kSlotBytes = 512;

// Backoff between re-reads of a faulted inode (RetryPolicy): the first
// pause, its growth per retry, its cap, and the most seeded jitter
// added to it, as a fraction of the pause.
constexpr double kInitialBackoffSeconds = 1e-3;
constexpr double kBackoffMultiplier = 2.0;
constexpr double kMaxBackoffSeconds = 100e-3;
constexpr double kJitterFraction = 0.1;

// Disk-cost inputs the walk accumulates beyond the table stream and the
// directories visited; they stay zero on an OST, whose scan is a pure
// inode-table stream.
struct DiskAccum {
  std::uint64_t dirent_bytes = 0;
  std::uint64_t external_ea_blocks = 0;
};

// Sizes both arrays of a scan's partial graph before the walk, so
// neither ever grows. One pass over the slots counts the in-use inodes
// (a vertex each) and, through inode_records with a counting sink, their
// edges. The counts come from the slots, never from the image's stored
// in-use count, which a damaged image may get wrong. The pass models no
// disk read and touches no fault schedule: sim time, retries and
// quarantines are the walk's alone. Quarantined inodes leave the arrays
// short of their capacity, never past it.
void size_partial(const LdiskfsImage& image, bool on_mdt,
                  PartialGraph& graph) {
  std::size_t vertices = 0;
  std::size_t edges = 0;
  for (std::uint64_t slot = 0; slot < image.inode_slots(); ++slot) {
    if (const Inode* inode = image.inode_at(slot)) {
      ++vertices;
      inode_records(*inode, on_mdt, [&](const Fid&, EdgeKind) { ++edges; });
    }
  }
  graph.vertices.reserve(vertices);
  graph.edges.reserve(edges);
}

// One in-use inode: its records come from inode_records; the visit adds
// only the disk-cost accounting.
void visit_inode(const Inode& inode, bool on_mdt, ScanResult& result,
                 DiskAccum& acc) {
  ++result.inodes_scanned;
  const ObjectKind kind =
      inode_records(inode, on_mdt, [&](const Fid& dst, EdgeKind edge) {
        result.graph.add_edge(inode.lma_fid, dst, edge);
      });
  result.graph.add_vertex(inode.lma_fid, kind);
  if (!on_mdt) return;
  if (kind == ObjectKind::kDirectory) {
    ++result.directories_visited;
    // Reading DIRENT entries means leaving the inode table for the
    // directory's data blocks — the one random excursion of the
    // scan (paper §IV-A).
    acc.dirent_bytes += std::max<std::uint64_t>(inode.dirent_bytes(), 4096);
  } else if (inode.link_ea.size() > 1 ||
             (inode.lov_ea.has_value() && inode.lov_ea->stripes.size() > 2)) {
    // Ext4 keeps ~100-200 B of EA space inline; a wide LOVEA or a
    // multi-entry LinkEA spills to an external xattr block, which costs
    // the scan one extra random read.
    ++acc.external_ea_blocks;
  }
}

// A torn-EA fault only bites when the inode actually has an external
// attribute to read.
bool inode_has_ea(const Inode& inode) {
  return !inode.link_ea.empty() || inode.lov_ea.has_value() ||
         inode.filter_fid.has_value();
}

// Reads one in-use inode slot under the fault schedule with bounded
// exponential backoff. Returns true on success, false when the retry
// budget is exhausted (caller quarantines the inode). Propagates
// ServerCrashError from the schedule. Backoff pauses, latency spikes
// and the seek cost of each re-read are charged to `fault_clock`.
bool read_with_retries(ServerFaultSchedule& faults, const RetryPolicy& retry,
                       const DiskModel& disk, std::uint64_t slot, bool has_ea,
                       ScanResult& result, SimClock& fault_clock) {
  double backoff = kInitialBackoffSeconds;
  for (std::uint32_t attempt = 1; attempt <= retry.max_attempts; ++attempt) {
    faults.on_read();
    ++result.read_attempts;
    const ReadFault fault = faults.probe(slot, attempt);
    fault_clock.advance(fault.extra_latency_seconds);
    const bool faulted = fault.transient_eio || (fault.torn_ea && has_ea);
    if (!faulted) return true;
    if (attempt == retry.max_attempts) break;
    ++result.retries;
    double pause = std::min(backoff, kMaxBackoffSeconds);
    pause *= 1.0 + kJitterFraction * faults.jitter_unit(slot, attempt);
    // The re-read leaves the streaming position: fresh seek + transfer.
    fault_clock.advance(pause + disk.random_read(kSlotBytes));
    backoff *= kBackoffMultiplier;
  }
  return false;
}

// Collapses a crashed or timed-out scan: the partial graph cannot be
// trusted (and must not leak half a server into aggregation), so only
// the label, the failure reason and the diagnostic counters survive.
void fail_scan(ScanResult& result, std::string error, double sim_seconds) {
  PartialGraph empty;
  empty.server = result.graph.server;
  result.graph = std::move(empty);
  result.status = ScanStatus::kFailed;
  result.error = std::move(error);
  result.sim_seconds = sim_seconds;
  result.inodes_scanned = 0;
  result.directories_visited = 0;
  result.quarantined.clear();
}

// The one table walk behind scan_mdt and scan_ost: every slot of
// `image` in block-group order. With a fault schedule each in-use slot
// is read under `retry` and quarantined when its reads never clear, and
// a server crash or a blown deadline collapses the scan to kFailed.
// Without one the walk only visits. Sim time is the disk formula over
// the slots streamed plus what the faults cost, so a walk that meets no
// fault charges exactly the fault-free time.
ScanResult scan_image(const LdiskfsImage& image, bool on_mdt,
                      const DiskModel& disk, ServerFaultSchedule* faults,
                      const RetryPolicy& retry) {
  ScanResult result;
  result.graph.server = image.label();
  size_partial(image, on_mdt, result.graph);
  DiskAccum acc;
  SimClock fault_clock;
  const auto sim_after = [&](std::uint64_t slots) {
    return disk.sequential_read(slots * kSlotBytes) +
           disk.random_reads(result.directories_visited, 0) +
           disk.random_reads(acc.external_ea_blocks, 512) +
           static_cast<double>(acc.dirent_bytes) / disk.bandwidth_bytes_per_s +
           fault_clock.now();
  };

  if (faults != nullptr) faults->begin_scan();
  std::uint64_t slots_read = 0;
  try {
    for (std::uint64_t slot = 0; slot < image.inode_slots(); ++slot) {
      slots_read = slot + 1;
      const Inode* inode = image.inode_at(slot);
      if (inode == nullptr) continue;
      if (faults != nullptr &&
          !read_with_retries(*faults, retry, disk, slot, inode_has_ea(*inode),
                             result, fault_clock)) {
        result.quarantined.push_back(inode->lma_fid);
        result.status = ScanStatus::kDegraded;
        continue;
      }
      visit_inode(*inode, on_mdt, result, acc);
      if (faults != nullptr) {
        const double sim_so_far = sim_after(slots_read);
        if (sim_so_far > retry.deadline_seconds) {
          fail_scan(result, "scan deadline exceeded", sim_so_far);
          break;
        }
      }
    }
  } catch (const ServerCrashError& crash) {
    fail_scan(result, crash.what(), sim_after(slots_read));
  }
  if (result.status != ScanStatus::kFailed) {
    result.sim_seconds = sim_after(image.inode_slots());
  }
  return result;
}

}  // namespace

ScanResult scan_mdt(const MdtServer& mdt, const DiskModel& disk,
                    ServerFaultSchedule* faults, const RetryPolicy& retry) {
  ScanResult result = scan_image(mdt.image, true, disk, faults, retry);
  // Only MDT0 hosts the aggregator; partial graphs from other metadata
  // servers (DNE) cross the wire like the OSS ones.
  result.local_to_mds = mdt.index == 0;
  return result;
}

ScanResult scan_ost(const OstServer& ost, const DiskModel& disk,
                    ServerFaultSchedule* faults, const RetryPolicy& retry) {
  return scan_image(ost.image, false, disk, faults, retry);
}

ClusterScan scan_cluster(const LustreCluster& cluster, ThreadPool* pool,
                         const DiskModel& mdt_disk, const DiskModel& ost_disk,
                         OpFaultSchedule* op_faults, const RetryPolicy& retry) {
  const std::size_t mdt_count = cluster.mdt_count();
  ClusterScan scan;
  scan.results.resize(cluster.server_count());

  // Resolve every server's schedule up front, on this thread: the scan
  // tasks then touch only their own ServerFaultSchedule, which is
  // single-writer by construction.
  std::vector<ServerFaultSchedule*> schedules(scan.results.size(), nullptr);
  if (op_faults != nullptr) {
    for (std::size_t slot = 0; slot < schedules.size(); ++slot) {
      schedules[slot] = &op_faults->server(cluster.image(slot).label());
    }
  }

  // Operational faults come back as status kFailed from the scanner
  // itself; anything unexpected is captured the same way, so one bad
  // server cannot discard the others' completed work.
  const auto scan_slot = [&](std::size_t slot) {
    try {
      scan.results[slot] =
          slot < mdt_count
              ? scan_mdt(cluster.mdt_server(slot), mdt_disk, schedules[slot],
                         retry)
              : scan_ost(cluster.osts()[slot - mdt_count], ost_disk,
                         schedules[slot], retry);
    } catch (const std::exception& error) {
      ScanResult failed;
      failed.graph.server = cluster.image(slot).label();
      failed.status = ScanStatus::kFailed;
      failed.error = error.what();
      scan.results[slot] = std::move(failed);
    }
  };

  if (pool != nullptr && pool->size() > 1) {
    // Each task writes only its own slot. The group's own wait keeps
    // this call from observing unrelated work on a shared pool.
    TaskGroup group(*pool);
    for (std::size_t slot = 0; slot < scan.results.size(); ++slot) {
      group.submit([&scan_slot, slot] { scan_slot(slot); });
    }
    group.wait();
  } else {
    for (std::size_t slot = 0; slot < scan.results.size(); ++slot) {
      scan_slot(slot);
    }
  }

  for (const auto& result : scan.results) {
    // Each server scans its own disks concurrently; the cluster-level
    // virtual scan time is the slowest server.
    scan.sim_seconds = std::max(scan.sim_seconds, result.sim_seconds);
    scan.inodes_scanned += result.inodes_scanned;
  }
  return scan;
}

}  // namespace faultyrank
