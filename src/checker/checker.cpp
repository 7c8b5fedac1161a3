#include "checker/checker.h"

#include <algorithm>

#include "common/timer.h"
#include "pfs/persistence.h"

namespace faultyrank {

namespace {

/// One scan→aggregate→rank→detect pass; repairs are the caller's call.
CheckerResult run_pass(LustreCluster& cluster, const CheckerConfig& config) {
  CheckerResult result;

  // Scans and encode + merge run on the pool; graph and sim numbers are
  // identical to a serial run. Degraded mode: with a fault schedule, a
  // crashed server shrinks coverage rather than aborting the check.
  PipelineConfig pipeline_config;
  pipeline_config.pool = config.pool;
  pipeline_config.mdt_disk = config.mdt_disk;
  pipeline_config.ost_disk = config.ost_disk;
  pipeline_config.net = config.net;
  pipeline_config.faults = config.faults;
  const PipelineResult pipeline = scan_and_aggregate(cluster, pipeline_config);
  const ClusterScan& scan = pipeline.scan;
  result.coverage = pipeline.agg.coverage;
  result.failed_servers = pipeline.failed_servers;
  const AggregationResult& aggregated = pipeline.agg;
  result.timings.t_scan_sim = scan.sim_seconds;
  result.inodes_scanned = scan.inodes_scanned;

  result.timings.t_graph_sim =
      std::max(0.0, aggregated.sim_pipeline_seconds - scan.sim_seconds);
  result.timings.t_graph_wall = aggregated.wall_seconds;
  result.vertices = aggregated.graph.vertex_count();
  result.edges = aggregated.graph.edge_count();
  result.unpaired_edges = aggregated.graph.unpaired_edges().size();
  result.graph_bytes = aggregated.graph.bytes();

  WallTimer fr_timer;
  result.ranks = run_faultyrank(aggregated.graph, config.rank, config.pool);
  DetectorConfig detector_config;
  detector_config.threshold = config.detection_threshold;
  detector_config.root = cluster.root();
  detector_config.coverage = pipeline.agg.coverage;
  result.report =
      detect_inconsistencies(aggregated.graph, result.ranks, detector_config);
  result.timings.t_fr_wall = fr_timer.seconds();
  return result;
}

}  // namespace

CheckerResult run_checker(LustreCluster& cluster, const CheckerConfig& config) {
  CheckerResult result = run_pass(cluster, config);

  if (config.apply_repairs && !result.report.consistent()) {
    if (config.capture_undo) {
      result.undo_image = serialize_cluster(cluster);
    }
    RepairExecutor executor(cluster);
    result.repair_outcomes = executor.apply_all(result.report.repair_plan());
    for (const auto& outcome : result.repair_outcomes) {
      if (outcome.applied) ++result.repairs_applied;
    }
    if (config.verify_after_repair) {
      CheckerConfig verify_config = config;
      verify_config.apply_repairs = false;
      verify_config.verify_after_repair = false;
      const CheckerResult recheck = run_pass(cluster, verify_config);
      result.verified_consistent = recheck.report.consistent();
    }
  } else if (config.verify_after_repair) {
    result.verified_consistent = result.report.consistent();
  }
  return result;
}

}  // namespace faultyrank
