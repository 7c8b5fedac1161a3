// Ablation: does the Fig. 4 unpaired-edge down-weight matter?
//
// Sweeps the reversed-pass weight w ∈ {1, 0.5, 0.1, 0.01, 0} and
// measures root-cause identification accuracy over a mixed fault
// campaign. w = 1 removes the penalty entirely (wishful pointers earn
// full credit); the paper's 1/10 sits in the middle; w = 0 starves
// every unpaired edge (and the legitimately-unacknowledged fields with
// them).
#include <cstdio>

#include "aggregator/aggregator.h"
#include "checker/checker.h"
#include "faults/injector.h"
#include "workload/namespace_gen.h"

using namespace faultyrank;

namespace {

struct Score {
  int detected = 0;
  int root_cause = 0;
  int repaired = 0;
  int rank_localized = 0;
  int total = 0;
};

/// Rank-only localization: ignoring every structural heuristic in the
/// detector, does the minimum mean-normalized score across all fields
/// of S_chk participants land on the corrupted field? This isolates
/// the contribution of the FaultyRank scores themselves.
bool rank_localizes(const UnifiedGraph& graph, const FaultyRankResult& ranks,
                    const GroundTruth& truth) {
  const Fid convict_as = truth.id_field ? truth.current : truth.victim;
  Gid best_vertex = kInvalidGid;
  bool best_is_id = false;
  double best = 1e300;
  const auto consider = [&](Gid v) {
    if (!graph.vertices().is_scanned(v)) return;
    const double id_rank = ranks.normalized_id_rank(v);
    const double prop_rank = ranks.normalized_prop_rank(v);
    if (id_rank < best) {
      best = id_rank;
      best_vertex = v;
      best_is_id = true;
    }
    if (prop_rank < best) {
      best = prop_rank;
      best_vertex = v;
      best_is_id = false;
    }
  };
  for (const UnpairedEdge& e : graph.unpaired_edges()) {
    consider(e.src);
    consider(e.dst);
  }
  if (best_vertex == kInvalidGid) return false;
  return graph.vertices().fid_of(best_vertex) == convict_as &&
         best_is_id == truth.id_field;
}

Score run_campaign(double unpaired_weight) {
  Score score;
  for (const Scenario scenario : kAllScenarios) {
    for (const std::uint64_t seed : {301ull, 302ull, 303ull}) {
      LustreCluster cluster(4, StripePolicy{64 * 1024, -1});
      NamespaceConfig config;
      config.file_count = 300;
      config.seed = seed;
      populate_namespace(cluster, config);
      FaultInjector injector(cluster, seed + 40);
      const GroundTruth truth = injector.inject(scenario);

      // Rank-only localization on the broken image.
      {
        ClusterScan scan = scan_cluster(cluster);
        const AggregationResult agg = aggregate(scan.results);
        FaultyRankConfig rank_config;
        rank_config.unpaired_weight = unpaired_weight;
        rank_config.epsilon = 1e-4;
        const FaultyRankResult ranks =
            run_faultyrank(agg.graph, rank_config);
        score.rank_localized += rank_localizes(agg.graph, ranks, truth);
      }

      CheckerConfig checker_config;
      checker_config.rank.unpaired_weight = unpaired_weight;
      checker_config.apply_repairs = true;
      checker_config.verify_after_repair = true;
      const CheckerResult result = run_checker(cluster, checker_config);
      const EvalOutcome outcome = evaluate_report(result.report, truth);

      ++score.total;
      score.detected += outcome.detected;
      score.root_cause += outcome.root_cause_identified;
      score.repaired +=
          result.verified_consistent && verify_restored(cluster, truth);
    }
  }
  return score;
}

}  // namespace

int main() {
  std::printf("=== Ablation: unpaired-edge weight in the reversed pass "
              "(paper default: 0.1) ===\n");
  std::printf("(24 injected faults each: 8 scenarios x 3 seeds)\n\n");
  std::printf("%-10s %-14s %-10s %-12s %-10s\n", "weight", "rank-only-loc",
              "detected", "root-cause", "repaired");
  for (const double weight : {1.0, 0.5, 0.1, 0.01, 0.0}) {
    const Score score = run_campaign(weight);
    std::printf("%-10.2f %3d/%-10d %3d/%-6d %3d/%-8d %3d/%-6d\n", weight,
                score.rank_localized, score.total, score.detected,
                score.total, score.root_cause, score.total, score.repaired,
                score.total);
  }
  std::printf("\n(rank-only-loc: the minimum FaultyRank score across S_chk "
              "lands exactly on the corrupted\n field, with every structural "
              "detector heuristic disabled — isolates the Fig. 4 weighting's\n"
              " effect on the scores themselves; the full detector combines "
              "ranks with pairing structure\n and stays robust across the "
              "sweep)\n");
  return 0;
}
