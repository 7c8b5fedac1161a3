#include "scanner/scanner.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "common/timer.h"

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

// Aggregate disk-cost inputs the MDT walk accumulates; the final
// sim-time formula consumes them so the resilient and plain walks
// charge byte-identical virtual time when no faults fire.
struct MdtAccum {
  std::uint64_t dirent_bytes = 0;
  std::uint64_t external_ea_blocks = 0;
};

// One MDT inode → graph vertices/edges. Shared by the plain
// for_each_inode walk and the resilient slot walk so both emit
// identical graphs.
void visit_mdt_inode(const Inode& inode, ScanResult& result, MdtAccum& acc) {
  ++result.inodes_scanned;
  // Ext4 keeps ~100-200 B of EA space inline; a wide LOVEA or a
  // multi-entry LinkEA spills to an external xattr block, which costs
  // the scan one extra random read (directories are charged for
  // their data-block excursion separately below).
  if (inode.type != InodeType::kDirectory &&
      (inode.link_ea.size() > 1 ||
       (inode.lov_ea.has_value() && inode.lov_ea->stripes.size() > 2))) {
    ++acc.external_ea_blocks;
  }
  switch (inode.type) {
    case InodeType::kDirectory: {
      result.graph.add_vertex(inode.lma_fid, ObjectKind::kDirectory);
      ++result.directories_visited;
      // Reading DIRENT entries means leaving the inode table for the
      // directory's data blocks — the one random excursion of the
      // scan (paper §IV-A).
      acc.dirent_bytes += std::max<std::uint64_t>(inode.dirent_bytes(), 4096);
      for (const auto& entry : inode.dirents) {
        result.graph.add_edge(inode.lma_fid, entry.fid, EdgeKind::kDirent);
      }
      for (const auto& link : inode.link_ea) {
        result.graph.add_edge(inode.lma_fid, link.parent, EdgeKind::kLinkEa);
      }
      break;
    }
    case InodeType::kRegular: {
      result.graph.add_vertex(inode.lma_fid, ObjectKind::kFile);
      for (const auto& link : inode.link_ea) {
        result.graph.add_edge(inode.lma_fid, link.parent, EdgeKind::kLinkEa);
      }
      if (inode.lov_ea.has_value()) {
        for (const auto& slot : inode.lov_ea->stripes) {
          result.graph.add_edge(inode.lma_fid, slot.stripe, EdgeKind::kLovEa);
        }
      }
      break;
    }
    case InodeType::kOstObject:
      // An OST object on the MDT would itself be corruption; surface
      // it as a bare vertex so the graph sees an isolated object.
      result.graph.add_vertex(inode.lma_fid, ObjectKind::kStripeObject);
      break;
  }
}

void visit_ost_inode(const Inode& inode, ScanResult& result) {
  ++result.inodes_scanned;
  result.graph.add_vertex(inode.lma_fid, ObjectKind::kStripeObject);
  if (inode.filter_fid.has_value()) {
    result.graph.add_edge(inode.lma_fid, inode.filter_fid->parent,
                          EdgeKind::kObjParent);
  }
}

double mdt_sim_seconds(const DiskModel& disk, std::uint64_t table_bytes,
                       const ScanResult& result, const MdtAccum& acc) {
  return disk.sequential_read(table_bytes) +
         disk.random_reads(result.directories_visited, 0) +
         disk.random_reads(acc.external_ea_blocks, 512) +
         static_cast<double>(acc.dirent_bytes) / disk.bandwidth_bytes_per_s;
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
  double backoff = retry.initial_backoff_seconds;
  for (std::uint32_t attempt = 1; attempt <= retry.max_attempts; ++attempt) {
    faults.on_read();
    ++result.read_attempts;
    const ReadFault fault = faults.probe(slot, attempt);
    fault_clock.advance(fault.extra_latency_seconds);
    const bool faulted = fault.transient_eio || (fault.torn_ea && has_ea);
    if (!faulted) return true;
    if (attempt == retry.max_attempts) break;
    ++result.retries;
    double pause = std::min(backoff, retry.max_backoff_seconds);
    pause *= 1.0 + retry.jitter_fraction * faults.jitter_unit(slot, attempt);
    // The re-read leaves the streaming position: fresh seek + transfer.
    fault_clock.advance(pause + disk.random_read(kSlotBytes));
    backoff *= retry.backoff_multiplier;
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

}  // namespace

ScanResult scan_mdt(const MdtServer& mdt, const DiskModel& disk,
                    ServerFaultSchedule* faults, const RetryPolicy& retry) {
  WallTimer timer;
  ScanResult result;
  result.graph.server = mdt.image.label();
  // Only MDT0 hosts the aggregator; partial graphs from other metadata
  // servers (DNE) cross the wire like the OSS ones.
  result.local_to_mds = mdt.index == 0;
  MdtAccum acc;

  if (faults == nullptr) {
    mdt.image.for_each_inode(
        [&](const Inode& inode) { visit_mdt_inode(inode, result, acc); });
    result.sim_seconds =
        mdt_sim_seconds(disk, mdt.image.inode_table_bytes(), result, acc);
    result.wall_seconds = timer.seconds();
    return result;
  }

  faults->begin_scan();
  SimClock fault_clock;
  std::uint64_t slots_read = 0;
  try {
    const std::uint64_t slots = mdt.image.inode_slots();
    for (std::uint64_t slot = 0; slot < slots; ++slot) {
      slots_read = slot + 1;
      const Inode* inode = mdt.image.inode_at(slot);
      if (inode == nullptr) continue;
      if (!read_with_retries(*faults, retry, disk, slot, inode_has_ea(*inode),
                             result, fault_clock)) {
        result.quarantined.push_back(inode->lma_fid);
        result.status = ScanStatus::kDegraded;
        continue;
      }
      visit_mdt_inode(*inode, result, acc);
      const double sim_so_far =
          mdt_sim_seconds(disk, slots_read * kSlotBytes, result, acc) +
          fault_clock.now();
      if (sim_so_far > retry.deadline_seconds) {
        fail_scan(result, "scan deadline exceeded", sim_so_far);
        result.wall_seconds = timer.seconds();
        return result;
      }
    }
  } catch (const ServerCrashError& crash) {
    fail_scan(result, crash.what(),
              mdt_sim_seconds(disk, slots_read * kSlotBytes, result, acc) +
                  fault_clock.now());
    result.wall_seconds = timer.seconds();
    return result;
  }

  result.sim_seconds =
      mdt_sim_seconds(disk, mdt.image.inode_table_bytes(), result, acc) +
      fault_clock.now();
  result.wall_seconds = timer.seconds();
  return result;
}

ScanResult scan_ost(const OstServer& ost, const DiskModel& disk,
                    ServerFaultSchedule* faults, const RetryPolicy& retry) {
  WallTimer timer;
  ScanResult result;
  result.graph.server = ost.image.label();

  if (faults == nullptr) {
    ost.image.for_each_inode(
        [&](const Inode& inode) { visit_ost_inode(inode, result); });
    // OST scans are a pure inode-table stream: objects carry no DIRENTs.
    result.sim_seconds = disk.sequential_read(ost.image.inode_table_bytes());
    result.wall_seconds = timer.seconds();
    return result;
  }

  faults->begin_scan();
  SimClock fault_clock;
  std::uint64_t slots_read = 0;
  try {
    const std::uint64_t slots = ost.image.inode_slots();
    for (std::uint64_t slot = 0; slot < slots; ++slot) {
      slots_read = slot + 1;
      const Inode* inode = ost.image.inode_at(slot);
      if (inode == nullptr) continue;
      if (!read_with_retries(*faults, retry, disk, slot, inode_has_ea(*inode),
                             result, fault_clock)) {
        result.quarantined.push_back(inode->lma_fid);
        result.status = ScanStatus::kDegraded;
        continue;
      }
      visit_ost_inode(*inode, result);
      const double sim_so_far =
          disk.sequential_read(slots_read * kSlotBytes) + fault_clock.now();
      if (sim_so_far > retry.deadline_seconds) {
        fail_scan(result, "scan deadline exceeded", sim_so_far);
        result.wall_seconds = timer.seconds();
        return result;
      }
    }
  } catch (const ServerCrashError& crash) {
    fail_scan(result, crash.what(),
              disk.sequential_read(slots_read * kSlotBytes) +
                  fault_clock.now());
    result.wall_seconds = timer.seconds();
    return result;
  }

  result.sim_seconds = disk.sequential_read(ost.image.inode_table_bytes()) +
                       fault_clock.now();
  result.wall_seconds = timer.seconds();
  return result;
}

const std::string& server_label(const LustreCluster& cluster,
                                std::size_t slot) {
  const std::size_t mdt_count = cluster.mdt_count();
  return slot < mdt_count ? cluster.mdt_server(slot).image.label()
                          : cluster.osts()[slot - mdt_count].image.label();
}

void scan_servers(const LustreCluster& cluster,
                  std::span<const std::size_t> slots, ClusterScan& scan,
                  ThreadPool* pool, const DiskModel& mdt_disk,
                  const DiskModel& ost_disk, OpFaultSchedule* op_faults,
                  const RetryPolicy& retry,
                  const std::function<void(std::size_t)>& on_scanned) {
  WallTimer timer;
  const std::size_t mdt_count = cluster.mdt_count();

  // Resolve every server's schedule up front, on this thread: the scan
  // tasks then touch only their own ServerFaultSchedule, which is
  // single-writer by construction.
  std::vector<ServerFaultSchedule*> schedules(scan.results.size(), nullptr);
  if (op_faults != nullptr) {
    for (const std::size_t slot : slots) {
      schedules[slot] = &op_faults->server(server_label(cluster, slot));
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
      failed.graph.server = server_label(cluster, slot);
      failed.status = ScanStatus::kFailed;
      failed.error = error.what();
      scan.results[slot] = std::move(failed);
    }
  };

  if (pool != nullptr && pool->size() > 1) {
    // One group per server, waited on in `slots` order, so on_scanned
    // sees the serial loop's sequence whichever scan finishes first.
    // Own groups also keep this wait from observing unrelated work on a
    // shared pool. If on_scanned throws, the groups drain on unwind.
    std::deque<TaskGroup> groups;
    for (const std::size_t slot : slots) {
      groups.emplace_back(*pool).submit(
          [&scan_slot, slot] { scan_slot(slot); });
    }
    for (std::size_t k = 0; k < slots.size(); ++k) {
      groups[k].wait();
      if (on_scanned) on_scanned(slots[k]);
    }
  } else {
    for (const std::size_t slot : slots) {
      scan_slot(slot);
      if (on_scanned) on_scanned(slot);
    }
  }

  for (const auto& result : scan.results) {
    // Each server scans its own disks concurrently; the cluster-level
    // virtual scan time is the slowest server.
    scan.sim_seconds = std::max(scan.sim_seconds, result.sim_seconds);
    scan.inodes_scanned += result.inodes_scanned;
  }
  scan.wall_seconds = timer.seconds();
}

ClusterScan scan_cluster(const LustreCluster& cluster, ThreadPool* pool,
                         const DiskModel& mdt_disk, const DiskModel& ost_disk,
                         OpFaultSchedule* op_faults, const RetryPolicy& retry) {
  ClusterScan scan;
  scan.results.resize(cluster.mdt_count() + cluster.osts().size());
  std::vector<std::size_t> slots(scan.results.size());
  std::iota(slots.begin(), slots.end(), std::size_t{0});
  scan_servers(cluster, slots, scan, pool, mdt_disk, ost_disk, op_faults,
               retry);
  return scan;
}

}  // namespace faultyrank
