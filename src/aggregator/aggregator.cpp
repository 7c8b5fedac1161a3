#include "aggregator/aggregator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "aggregator/checkpoint.h"
#include "common/timer.h"
#include "pfs/persistence.h"

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
/// per-scanner sim times and wire sizes, so any thread count, and a
/// resumed run, report identical numbers. Failed scans keep
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
  // only, in slot order — deterministic for any pool size, and
  // identical between a resumed and an uninterrupted run (both see the
  // same survivors).
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

PipelineResult scan_and_aggregate(const LustreCluster& cluster,
                                  const PipelineConfig& config) {
  PipelineResult out;
  ClusterScan& scan = out.scan;

  const std::size_t server_count = cluster.server_count();
  scan.results.resize(server_count);

  std::vector<std::string> labels(server_count);
  for (std::size_t i = 0; i < server_count; ++i) {
    labels[i] = cluster.image(i).label();
  }

  // Checkpoint prefill: slots completed by a previous (interrupted) run
  // are restored instead of rescanned. A missing file means a fresh
  // run; a corrupt or mismatched file is a real error.
  const bool checkpointing = !config.checkpoint_path.empty();
  ScanCheckpoint ckpt;
  std::vector<char> prefilled(server_count, 0);
  if (checkpointing) {
    std::vector<std::uint8_t> bytes;
    bool have_checkpoint = true;
    try {
      bytes = read_file_bytes(config.checkpoint_path);
    } catch (const PersistenceError&) {
      have_checkpoint = false;
    }
    if (have_checkpoint) {
      ScanCheckpoint loaded = deserialize_checkpoint(bytes);
      if (loaded.labels != labels) {
        throw PersistenceError("checkpoint " + config.checkpoint_path +
                               " does not match this cluster's servers");
      }
      if (loaded.epoch != config.checkpoint_epoch) {
        // Same cluster, older content: the namespace mutated between
        // the interruption and this resume. Those scans describe a
        // state that no longer exists — resuming them would mix two
        // points in time into one graph. Discard and rescan everything.
        out.checkpoint_discarded = true;
      } else {
        for (std::size_t i = 0; i < server_count; ++i) {
          if (loaded.results[i].has_value()) {
            scan.results[i] = std::move(*loaded.results[i]);
            prefilled[i] = 1;
            ++out.servers_resumed;
          }
        }
      }
    }
    ckpt.epoch = config.checkpoint_epoch;
    ckpt.labels = labels;
    ckpt.results.resize(server_count);
    for (std::size_t i = 0; i < server_count; ++i) {
      if (prefilled[i]) ckpt.results[i] = scan.results[i];
    }
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < server_count; ++i) {
    if (!prefilled[i]) pending.push_back(i);
  }

  // Each completed scan, in slot order: save it to the checkpoint, then
  // honor the interrupt test hook. The order makes an interrupted run
  // leave the same checkpoint with or without a pool.
  std::size_t new_completions = 0;
  scan_servers(
      cluster, pending, scan, config.pool, config.mdt_disk, config.ost_disk,
      config.faults, config.retry, [&](std::size_t slot) {
        if (checkpointing && scan.results[slot].status != ScanStatus::kFailed) {
          ckpt.results[slot] = scan.results[slot];
          save_checkpoint(ckpt, config.checkpoint_path);
        }
        if (++new_completions >= config.interrupt_after_servers) {
          throw PipelineInterrupted(
              "pipeline interrupted after " + std::to_string(new_completions) +
              " scans" +
              (checkpointing ? " (checkpoint: " + config.checkpoint_path + ")"
                             : ""));
        }
      });

  out.agg = aggregate(scan.results, config.net, config.pool);
  // Degraded roll-up: aggregate() records the surviving fraction and
  // quarantined inodes; only the cluster knows each failed server's
  // label and the FID sequence it owned.
  for (std::size_t i = 0; i < server_count; ++i) {
    if (scan.results[i].status != ScanStatus::kFailed) continue;
    out.failed_servers.push_back(labels[i]);
    out.agg.coverage.add_lost_sequence(cluster.fids(i).seq());
  }
  return out;
}

}  // namespace faultyrank
