#include "checker/checker.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "beegfs/bee_repair_executor.h"
#include "beegfs/bee_scanner.h"
#include "common/timer.h"
#include "pfs/persistence.h"

namespace faultyrank {

namespace {

/// The tail of every pass once the partials are merged: graph counts,
/// the Table VI timings, then rank and detect. `root` is exempt from
/// the unreferenced check.
CheckerResult rank_and_detect(const ClusterScan& scan,
                              const AggregationResult& aggregated,
                              const Fid& root, const CheckerConfig& config) {
  CheckerResult result;
  result.coverage = aggregated.coverage;
  result.timings.t_scan_sim = scan.sim_seconds;
  result.inodes_scanned = scan.inodes_scanned;
  result.timings.t_graph_sim =
      std::max(0.0, aggregated.sim_pipeline_seconds - scan.sim_seconds);
  result.timings.t_graph_wall = aggregated.wall_seconds;
  result.vertices = aggregated.graph.vertex_count();
  result.edges = aggregated.graph.edge_count();
  result.unpaired_edges = aggregated.graph.unpaired_edges().size();

  WallTimer fr_timer;
  result.ranks = run_faultyrank(aggregated.graph, config.rank, config.pool);
  DetectorConfig detector_config;
  detector_config.threshold = config.detection_threshold;
  detector_config.root = root;
  detector_config.coverage = aggregated.coverage;
  result.report =
      detect_inconsistencies(aggregated.graph, result.ranks, detector_config);
  result.timings.t_fr_wall = fr_timer.seconds();
  return result;
}

/// One scan→aggregate→rank→detect pass; repairs are the caller's call.
/// Scans and encode + merge run on the pool; graph and sim numbers are
/// identical to a serial run. Degraded mode: with a fault schedule, a
/// crashed server shrinks coverage rather than aborting the check.
CheckerResult run_pass(LustreCluster& cluster, const CheckerConfig& config) {
  ClusterScan scan = scan_cluster(cluster, config.pool, config.mdt_disk,
                                  config.ost_disk, config.faults);
  AggregationResult aggregated =
      aggregate(scan.results, config.net, config.pool);
  // aggregate() records the surviving fraction and quarantined inodes;
  // only the cluster knows each failed server's label and the FID
  // sequence it owned. Detection reads the lost sequences to mark
  // findings unverifiable, so they are added before it runs.
  std::vector<std::string> failed_servers;
  for (std::size_t i = 0; i < scan.results.size(); ++i) {
    if (scan.results[i].status != ScanStatus::kFailed) continue;
    failed_servers.push_back(cluster.image(i).label());
    aggregated.coverage.add_lost_sequence(cluster.fids(i).seq());
  }
  CheckerResult result =
      rank_and_detect(scan, aggregated, cluster.root(), config);
  result.failed_servers = std::move(failed_servers);
  return result;
}

/// The same pass over a BeeGFS cluster. The scan is serial; encode,
/// merge and rank run on the pool.
CheckerResult run_pass(BeeCluster& cluster, const CheckerConfig& config) {
  ClusterScan scan =
      scan_bee_cluster(cluster, config.mdt_disk, config.ost_disk);
  const AggregationResult aggregated =
      aggregate(scan.results, config.net, config.pool);
  return rank_and_detect(scan, aggregated,
                         fid_from_entry_id(cluster.root()).value_or(Fid{}),
                         config);
}

/// A whole check: one pass, then the repair→verify tail. When the pass
/// found something and repairs are on, `repair(result)` applies
/// result.report's plan and returns the outcomes; a re-check pass then
/// verifies convergence if asked.
template <typename Cluster, typename Repair>
CheckerResult check(Cluster& cluster, const CheckerConfig& config,
                    Repair&& repair) {
  CheckerResult result = run_pass(cluster, config);
  if (config.apply_repairs && !result.report.consistent()) {
    result.repair_outcomes = repair(result);
    for (const auto& outcome : result.repair_outcomes) {
      if (outcome.applied) ++result.repairs_applied;
    }
    if (config.verify_after_repair) {
      result.verified_consistent =
          run_pass(cluster, config).report.consistent();
    }
  } else if (config.verify_after_repair) {
    result.verified_consistent = result.report.consistent();
  }
  return result;
}

}  // namespace

CheckerResult run_checker(LustreCluster& cluster, const CheckerConfig& config) {
  return check(cluster, config, [&](CheckerResult& result) {
    if (config.capture_undo) result.undo_image = serialize_cluster(cluster);
    return RepairExecutor(cluster).apply_all(result.report.repair_plan());
  });
}

CheckerResult run_checker(BeeCluster& cluster, const CheckerConfig& config) {
  if (config.faults != nullptr) {
    throw std::invalid_argument(
        "CheckerConfig::faults: BeeGFS models no operational faults");
  }
  if (config.capture_undo) {
    throw std::invalid_argument(
        "CheckerConfig::capture_undo: BeeGFS has no undo image");
  }
  return check(cluster, config, [&](const CheckerResult& result) {
    return BeeRepairExecutor(cluster).apply_all(result.report.repair_plan());
  });
}

}  // namespace faultyrank
