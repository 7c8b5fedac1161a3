#include "aggregator/aggregator.h"

#include <algorithm>
#include <vector>

#include "common/timer.h"

namespace faultyrank {

namespace {

/// Frees a merged partial graph's records; its server name stays.
void release(PartialGraph& graph) {
  graph.vertices = std::vector<VertexRecord>();
  graph.edges = std::vector<FidEdge>();
}

/// Moves one remote scan result onto the MDS across the wire: encodes
/// it and releases its decoded form at once.
void encode_partial(ScanResult& scan, std::vector<std::uint8_t>& wire) {
  wire = scan.graph.serialize();
  release(scan.graph);
}

/// Fills the virtual-time transfer accounting. Pure arithmetic over the
/// per-scanner sim times and wire sizes, so any thread count reports
/// identical numbers. Failed scans keep
/// their partial sim time in the scan stage (the crash was detected at
/// that point) but transfer nothing.
void account_transfers(std::span<const ScanResult> scans,
                       std::span<const std::vector<std::uint8_t>> wire,
                       const NetModel& net, AggregationResult& result) {
  double slowest_scan = 0.0;
  std::vector<std::size_t> remote;
  for (std::size_t i = 0; i < scans.size(); ++i) {
    slowest_scan = std::max(slowest_scan, scans[i].sim_seconds);
    if (scans[i].status == ScanStatus::kFailed) continue;
    if (!scans[i].local_to_mds) {
      remote.push_back(i);
      result.transferred_bytes += wire[i].size();
      result.sim_transfer_seconds += net.transfer(wire[i].size());
    }
  }
  // Pipelined model: each transfer becomes ready when its scanner
  // finishes; the single MDS ingress link serves them in readiness
  // order (ties broken by server index for determinism).
  std::sort(remote.begin(), remote.end(),
            [&](std::size_t a, std::size_t b) {
              return scans[a].sim_seconds != scans[b].sim_seconds
                         ? scans[a].sim_seconds < scans[b].sim_seconds
                         : a < b;
            });
  double link_free = 0.0;
  for (const std::size_t i : remote) {
    const double start = std::max(link_free, scans[i].sim_seconds);
    link_free = start + net.transfer(wire[i].size());
  }
  result.sim_pipeline_seconds = std::max(slowest_scan, link_free);
}

}  // namespace

AggregationResult aggregate(std::span<ScanResult> scans, const NetModel& net,
                            ThreadPool* pool) {
  WallTimer timer;
  AggregationResult result;

  // Remote partials cross the wire as FRPG bytes and are merged from
  // them in place; a local one is merged where its scan left it.
  const auto remote = [&scans](std::size_t i) {
    return scans[i].status != ScanStatus::kFailed && !scans[i].local_to_mds;
  };
  std::vector<std::vector<std::uint8_t>> wire(scans.size());
  if (pool != nullptr && pool->size() > 1 && scans.size() > 1) {
    TaskGroup group(*pool);
    for (std::size_t i = 0; i < scans.size(); ++i) {
      if (!remote(i)) continue;
      group.submit([&scans, &wire, i] { encode_partial(scans[i], wire[i]); });
    }
    group.wait();
  } else {
    for (std::size_t i = 0; i < scans.size(); ++i) {
      if (remote(i)) encode_partial(scans[i], wire[i]);
    }
  }
  account_transfers(scans, wire, net, result);

  // Coverage and the unified graph come from the surviving partials
  // only, in slot order — deterministic for any pool size.
  std::vector<PartialSource> survivors;
  survivors.reserve(scans.size());
  for (std::size_t i = 0; i < scans.size(); ++i) {
    if (scans[i].status == ScanStatus::kFailed) continue;
    for (const Fid& fid : scans[i].quarantined) {
      result.coverage.quarantined.insert(fid);
    }
    if (remote(i)) {
      survivors.emplace_back(PartialGraphView::of(wire[i]));
    } else {
      survivors.emplace_back(&scans[i].graph);
    }
  }
  if (!scans.empty()) {
    result.coverage.coverage = static_cast<double>(survivors.size()) /
                               static_cast<double>(scans.size());
  }
  result.graph = UnifiedGraph::aggregate(survivors, pool);
  for (std::size_t i = 0; i < scans.size(); ++i) {
    if (scans[i].status != ScanStatus::kFailed && !remote(i)) {
      release(scans[i].graph);
    }
  }
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace faultyrank
