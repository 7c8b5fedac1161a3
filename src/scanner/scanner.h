// Metadata scanners (paper §IV-A).
//
// One scanner per server walks the local image raw — inode table in
// block-group order, descending into directory data blocks for DIRENT
// entries — and emits a partial graph of FID-keyed vertices and edges,
// by the one inode → records rule below (inode_records):
//
//   MDT directory  → vertex(kDirectory); DIRENT edge per entry;
//                    LinkEA edge per parent link
//   MDT file       → vertex(kFile); LinkEA edges; LOVEA edge per stripe
//   OST object     → vertex(kStripeObject); ObjLinkEA edge to its owner
//
// Scanners never consult the OI or resolve paths: they read exactly the
// bytes a raw disk walk sees, so corrupted EAs flow into the graph
// unfiltered — that is the whole point.
//
// Disk cost: one streaming read of the inode table plus one random read
// per directory's entry blocks, charged to the server's DiskModel.
//
// Memory: a scan sizes its partial graph once, before the walk, so
// neither array grows during it (DESIGN.md §7). A sizing pass over the
// slots counts the in-use inodes and, through inode_records, their
// edges; it trusts no count stored in the image. The sizing pass is not
// a modelled disk read: it is charged no sim time and consults no fault
// schedule.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/thread_pool.h"
#include "faults/op_faults.h"
#include "graph/partial_graph.h"
#include "pfs/cluster.h"

namespace faultyrank {

/// How a per-server scan ended.
enum class ScanStatus : std::uint8_t {
  kComplete = 0,  ///< every in-use inode read successfully
  kDegraded = 1,  ///< finished, but some inodes were quarantined
  kFailed = 2,    ///< server crashed or deadline hit; graph discarded
};

[[nodiscard]] const char* to_string(ScanStatus status) noexcept;

/// Bounded retry for faulted inode reads. Each pause before a re-read
/// doubles from 1 ms up to a 100 ms cap, plus a seeded jitter of up to
/// 10 %. Every pause is virtual time charged to the scan's DiskModel
/// clock; nothing here sleeps real threads.
struct RetryPolicy {
  std::uint32_t max_attempts = 4;          ///< reads per inode, total
  /// Abort the scan (status kFailed) once its virtual clock passes
  /// this. Defaults to no deadline.
  double deadline_seconds = std::numeric_limits<double>::infinity();
};

struct ScanResult {
  PartialGraph graph;
  bool local_to_mds = false;   ///< MDS partial graphs skip the network
  double sim_seconds = 0.0;    ///< virtual disk time
  std::uint64_t inodes_scanned = 0;
  std::uint64_t directories_visited = 0;
  ScanStatus status = ScanStatus::kComplete;
  std::uint64_t read_attempts = 0;  ///< physical reads incl. retries
  std::uint64_t retries = 0;        ///< re-reads after a faulted read
  std::vector<Fid> quarantined;     ///< unreadable inodes, skipped
  std::string error;                ///< why, when status == kFailed
};

/// The graph records of one in-use inode, as a raw scan of the server
/// holding it reads them: calls `edge(dst, kind)` once per out-edge and
/// returns the vertex kind. The one rule for every caller — the offline
/// scan and the online checker's bootstrap and scrub — so an online
/// graph holds exactly the records an offline scan emits.
///   - On an MDT the type byte decides: a directory is kDirectory with a
///     DIRENT edge per entry, then a LinkEA edge per parent link; a
///     regular file is kFile with its LinkEA edges, then a LOVEA edge
///     per stripe. An OST object found there is itself corruption and
///     stays a bare kStripeObject, an isolated vertex.
///   - On an OST every inode is a stripe object whatever its type byte
///     says: kStripeObject plus its ObjLinkEA edge.
template <typename EdgeSink>
ObjectKind inode_records(const Inode& inode, bool on_mdt, EdgeSink&& edge) {
  if (!on_mdt) {
    if (inode.filter_fid.has_value()) {
      edge(inode.filter_fid->parent, EdgeKind::kObjParent);
    }
    return ObjectKind::kStripeObject;
  }
  switch (inode.type) {
    case InodeType::kDirectory:
      for (const auto& entry : inode.dirents) {
        edge(entry.fid, EdgeKind::kDirent);
      }
      for (const auto& link : inode.link_ea) {
        edge(link.parent, EdgeKind::kLinkEa);
      }
      return ObjectKind::kDirectory;
    case InodeType::kRegular:
      for (const auto& link : inode.link_ea) {
        edge(link.parent, EdgeKind::kLinkEa);
      }
      if (inode.lov_ea.has_value()) {
        for (const auto& slot : inode.lov_ea->stripes) {
          edge(slot.stripe, EdgeKind::kLovEa);
        }
      }
      return ObjectKind::kFile;
    case InodeType::kOstObject:
      break;
  }
  return ObjectKind::kStripeObject;
}

/// Scans one MDT image (paper: the MDS holds namespace + layout
/// metadata on a local SSD). The scan walks the inode table slot by
/// slot. With a fault schedule it retries faulted reads under `retry`
/// and quarantines inodes whose reads never clear; a server crash or a
/// blown deadline yields status kFailed with an empty graph instead of
/// an exception. Without a schedule the same walk reads every slot
/// once, with no retry, quarantine or deadline.
[[nodiscard]] ScanResult scan_mdt(const MdtServer& mdt,
                                  const DiskModel& disk = DiskModel::ssd(),
                                  ServerFaultSchedule* faults = nullptr,
                                  const RetryPolicy& retry = {});

/// Scans one OST image (paper: OSTs are HDD-backed). Fault semantics
/// match scan_mdt.
[[nodiscard]] ScanResult scan_ost(const OstServer& ost,
                                  const DiskModel& disk = DiskModel::hdd(),
                                  ServerFaultSchedule* faults = nullptr,
                                  const RetryPolicy& retry = {});

struct ClusterScan {
  std::vector<ScanResult> results;  ///< by cluster slot: MDTs, then OSTs
  /// Virtual elapsed time: scanners run in parallel on their own
  /// servers, so the cluster-level scan time is the slowest scanner.
  double sim_seconds = 0.0;
  std::uint64_t inodes_scanned = 0;
};

/// Scans every server of `cluster` into results[slot] (cluster slots,
/// LustreCluster::image): looks up each server's fault schedule
/// on this thread, dispatches to scan_mdt or scan_ost, and records a
/// scan that throws as a kFailed slot. With a pool every server runs as
/// a task of one TaskGroup, mirroring the paper's concurrent scanners;
/// the results are the same for any pool size. Never throws on a
/// server's failure: a crashed server is reported as a kFailed slot in
/// `results`, and the surviving scans are kept.
[[nodiscard]] ClusterScan scan_cluster(const LustreCluster& cluster,
                                       ThreadPool* pool = nullptr,
                                       const DiskModel& mdt_disk = DiskModel::ssd(),
                                       const DiskModel& ost_disk = DiskModel::hdd(),
                                       OpFaultSchedule* op_faults = nullptr,
                                       const RetryPolicy& retry = {});

}  // namespace faultyrank
