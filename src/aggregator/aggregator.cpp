#include "aggregator/aggregator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "aggregator/checkpoint.h"
#include "common/bounded_queue.h"
#include "common/timer.h"
#include "pfs/persistence.h"

namespace faultyrank {

namespace {

/// Moves one scan result onto the MDS: local partials join directly,
/// remote ones cross the wire (encode, count the bytes, decode).
void decode_partial(const ScanResult& scan, PartialGraph& out,
                    std::uint64_t& wire_bytes) {
  if (scan.local_to_mds) {
    out = scan.graph;
    return;
  }
  const auto bytes = scan.graph.serialize();
  wire_bytes = bytes.size();
  out = PartialGraph::deserialize(bytes);
}

/// Fills the virtual-time transfer accounting. Pure arithmetic over the
/// per-scanner sim times and wire sizes, so batch and streaming paths
/// (and any thread count) report identical numbers. Failed scans keep
/// their partial sim time in the scan stage (the crash was detected at
/// that point) but transfer nothing.
void account_transfers(std::span<const ScanResult> scans,
                       std::span<const std::uint64_t> wire_bytes,
                       const NetModel& net, AggregationResult& result) {
  double slowest_scan = 0.0;
  std::vector<std::size_t> remote;
  for (std::size_t i = 0; i < scans.size(); ++i) {
    slowest_scan = std::max(slowest_scan, scans[i].sim_seconds);
    if (scans[i].status == ScanStatus::kFailed) continue;
    if (!scans[i].local_to_mds) {
      remote.push_back(i);
      result.transferred_bytes += wire_bytes[i];
      result.sim_transfer_seconds += net.transfer(wire_bytes[i]);
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
    link_free = start + net.transfer(wire_bytes[i]);
  }
  result.sim_pipeline_seconds = std::max(slowest_scan, link_free);
}

/// Unified graph from the surviving partials only, in slot order —
/// deterministic for any pool size, and identical between a resumed
/// and an uninterrupted run (both see the same survivors).
UnifiedGraph merge_survivors(std::span<const ScanResult> scans,
                             std::vector<PartialGraph>& partials,
                             ThreadPool* pool) {
  std::vector<PartialGraph> survivors;
  survivors.reserve(partials.size());
  for (std::size_t i = 0; i < scans.size(); ++i) {
    if (scans[i].status != ScanStatus::kFailed) {
      survivors.push_back(std::move(partials[i]));
    }
  }
  return UnifiedGraph::aggregate(survivors, pool);
}

void fill_coverage_fraction(std::span<const ScanResult> scans,
                            CoverageInfo& coverage) {
  std::size_t ok = 0;
  for (const ScanResult& scan : scans) {
    if (scan.status == ScanStatus::kFailed) continue;
    ++ok;
    for (const Fid& fid : scan.quarantined) coverage.quarantined.insert(fid);
  }
  coverage.coverage =
      scans.empty() ? 1.0
                    : static_cast<double>(ok) / static_cast<double>(scans.size());
}

}  // namespace

AggregationResult aggregate(std::span<const ScanResult> scans,
                            const NetModel& net, ThreadPool* pool) {
  WallTimer timer;
  AggregationResult result;

  std::vector<PartialGraph> partials(scans.size());
  std::vector<std::uint64_t> wire_bytes(scans.size(), 0);
  if (pool != nullptr && pool->size() > 1 && scans.size() > 1) {
    TaskGroup group(*pool);
    for (std::size_t i = 0; i < scans.size(); ++i) {
      if (scans[i].status == ScanStatus::kFailed) continue;
      group.submit([&scans, &partials, &wire_bytes, i] {
        decode_partial(scans[i], partials[i], wire_bytes[i]);
      });
    }
    group.wait();
  } else {
    for (std::size_t i = 0; i < scans.size(); ++i) {
      if (scans[i].status == ScanStatus::kFailed) continue;
      decode_partial(scans[i], partials[i], wire_bytes[i]);
    }
  }

  account_transfers(scans, wire_bytes, net, result);
  fill_coverage_fraction(scans, result.coverage);
  result.graph = merge_survivors(scans, partials, pool);
  result.wall_seconds = timer.seconds();
  return result;
}

PipelineResult scan_and_aggregate(const LustreCluster& cluster,
                                  const PipelineConfig& config) {
  WallTimer total_timer;
  PipelineResult out;
  ClusterScan& scan = out.scan;
  ThreadPool* pool = config.pool;

  const std::size_t mdt_count = cluster.mdt_count();
  const std::size_t server_count = mdt_count + cluster.osts().size();
  scan.results.resize(server_count);

  std::vector<std::string> labels(server_count);
  for (std::size_t m = 0; m < mdt_count; ++m) {
    labels[m] = cluster.mdt_server(m).image.label();
  }
  for (std::size_t i = 0; i < cluster.osts().size(); ++i) {
    labels[mdt_count + i] = cluster.osts()[i].image.label();
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

  // Fault schedules resolved here, on the submitting thread: each scan
  // task then touches only its own ServerFaultSchedule.
  std::vector<ServerFaultSchedule*> schedules(server_count, nullptr);
  if (config.faults != nullptr) {
    for (std::size_t i = 0; i < server_count; ++i) {
      schedules[i] = &config.faults->server(labels[i]);
    }
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < server_count; ++i) {
    if (!prefilled[i]) pending.push_back(i);
  }

  std::vector<PartialGraph> partials(server_count);
  std::vector<std::uint64_t> wire_bytes(server_count, 0);
  double scan_wall = 0.0;

  // Runs one server's scan; operational faults come back as status
  // kFailed from the scanner itself, and anything unexpected is
  // captured the same way so one bad server cannot discard the others'
  // completed work.
  const auto scan_slot = [&](std::size_t slot) {
    try {
      scan.results[slot] =
          slot < mdt_count
              ? scan_mdt(cluster.mdt_server(slot), config.mdt_disk,
                         schedules[slot], config.retry)
              : scan_ost(cluster.osts()[slot - mdt_count], config.ost_disk,
                         schedules[slot], config.retry);
    } catch (const std::exception& error) {
      ScanResult failed;
      failed.graph.server = labels[slot];
      failed.status = ScanStatus::kFailed;
      failed.error = error.what();
      scan.results[slot] = std::move(failed);
    }
  };

  // Consumer-side completion hook: fold the result into the checkpoint
  // and honor the interrupt test hook. Returns false to stop consuming.
  std::size_t new_completions = 0;
  std::size_t since_save = 0;
  const auto on_complete = [&](std::size_t slot) -> bool {
    ++new_completions;
    if (checkpointing && scan.results[slot].status != ScanStatus::kFailed) {
      ckpt.results[slot] = scan.results[slot];
      if (++since_save >= config.checkpoint_every) {
        save_checkpoint(ckpt, config.checkpoint_path);
        since_save = 0;
      }
    }
    return new_completions < config.interrupt_after_servers;
  };
  const auto interrupt = [&]() {
    if (checkpointing && since_save > 0) {
      save_checkpoint(ckpt, config.checkpoint_path);
    }
    throw PipelineInterrupted(
        "pipeline interrupted after " + std::to_string(new_completions) +
        " scans" +
        (checkpointing ? " (checkpoint: " + config.checkpoint_path + ")"
                       : ""));
  };

  if (pool != nullptr && pool->size() > 1 && !pending.empty()) {
    // Scanners announce completion through a bounded queue; the caller
    // drains it and hands each finished partial straight to a decode
    // task, so wire decode overlaps the still-running scans.
    BoundedQueue<std::size_t> finished(
        std::max<std::size_t>(std::size_t{2}, pool->size()));
    TaskGroup scanners(*pool);
    TaskGroup decoders(*pool);
    // Prefilled slots are ready immediately — decode them while the
    // rescans run.
    for (std::size_t i = 0; i < server_count; ++i) {
      if (prefilled[i] && scan.results[i].status != ScanStatus::kFailed) {
        decoders.submit([&scan, &partials, &wire_bytes, i] {
          decode_partial(scan.results[i], partials[i], wire_bytes[i]);
        });
      }
    }
    for (const std::size_t slot : pending) {
      scanners.submit([&, slot] {
        scan_slot(slot);
        finished.push(slot);
      });
    }
    bool keep_going = true;
    for (std::size_t k = 0; k < pending.size() && keep_going; ++k) {
      // The pop count equals the scanner count and the queue is only
      // closed on the interrupt path, so every pop yields a value.
      const std::size_t i = finished.pop().value();
      if (scan.results[i].status != ScanStatus::kFailed) {
        decoders.submit([&scan, &partials, &wire_bytes, i] {
          decode_partial(scan.results[i], partials[i], wire_bytes[i]);
        });
      }
      keep_going = on_complete(i);
    }
    if (!keep_going) {
      // Unblock any scanner still waiting to push, then unwind; the
      // task groups drain (without rethrow) in their destructors.
      finished.close();
      interrupt();
    }
    scan_wall = total_timer.seconds();  // every scanner has reported
    scanners.wait();
    decoders.wait();
  } else {
    for (const std::size_t slot : pending) {
      scan_slot(slot);
      if (!on_complete(slot)) interrupt();
    }
    scan_wall = total_timer.seconds();
    for (std::size_t i = 0; i < server_count; ++i) {
      if (scan.results[i].status != ScanStatus::kFailed) {
        decode_partial(scan.results[i], partials[i], wire_bytes[i]);
      }
    }
  }

  scan.wall_seconds = scan_wall;
  for (const auto& result : scan.results) {
    // Each server scans its own disks concurrently; the cluster-level
    // virtual scan time is the slowest server.
    scan.sim_seconds = std::max(scan.sim_seconds, result.sim_seconds);
    scan.inodes_scanned += result.inodes_scanned;
  }

  // Coverage roll-up: which servers (and so which FID sequences) were
  // lost, which inodes were quarantined on survivors.
  CoverageInfo& coverage = out.agg.coverage;
  for (std::size_t i = 0; i < server_count; ++i) {
    if (scan.results[i].status != ScanStatus::kFailed) continue;
    out.failed_servers.push_back(labels[i]);
    coverage.add_lost_sequence(i < mdt_count
                                   ? cluster.mdt_server(i).fids.seq()
                                   : cluster.osts()[i - mdt_count].fids.seq());
  }
  fill_coverage_fraction(scan.results, coverage);

  if (!out.failed_servers.empty() && !config.allow_degraded) {
    std::string message = "scan failed on";
    for (std::size_t i = 0; i < server_count; ++i) {
      if (scan.results[i].status != ScanStatus::kFailed) continue;
      message += " " + labels[i] + " (" + scan.results[i].error + ")";
    }
    throw PipelineError(message, std::move(out.failed_servers));
  }

  account_transfers(scan.results, wire_bytes, config.net, out.agg);
  out.agg.graph = merge_survivors(scan.results, partials, pool);
  out.wall_seconds = total_timer.seconds();
  out.agg.wall_seconds = std::max(0.0, out.wall_seconds - scan_wall);
  return out;
}

}  // namespace faultyrank
