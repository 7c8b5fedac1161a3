#include "workloads.h"

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "checker/checker.h"
#include "checker/repair_executor.h"
#include "common/memory_tracker.h"
#include "common/thread_pool.h"
#include "core/propagation_plan.h"
#include "core/report.h"
#include "online/online_checker.h"
#include "pfs/changelog.h"
#include "pfs/persistence.h"
#include "scanner/scanner.h"
#include "trace.h"
#include "workload/traffic.h"

namespace perfbench {

using namespace faultyrank;

namespace {

/// online_churn: namespace ops per round; ops issued before an epoch's
/// warm-up round, so that every simulated user already owns hundreds of
/// names and no link or unlink finds nothing to act on; timed rounds per
/// epoch (see run_online); and set-ups per epoch, each one timed, so that
/// a run holds enough setup_s samples for a steady median.
constexpr std::size_t kRoundOps = 200;
constexpr std::size_t kPrefillOps = 20000;
constexpr std::size_t kEpochRounds = 32;
constexpr std::size_t kEpochSetups = 3;
/// Pool a traced run times its pool-less graph merge against.
constexpr std::size_t kSpeedupWorkers = 3;

double ms_between(std::int64_t start, std::int64_t end) {
  return static_cast<double>(end - start) / 1e6;
}

/// Runs `body` inside a span named `name` when `tracer` is set.
template <class F>
decltype(auto) in_span(Tracer* tracer, const char* name, F&& body) {
  std::optional<Tracer::Scope> span;
  if (tracer != nullptr) span.emplace(*tracer, name);
  return body();
}

/// Everything a run measured.
struct Samples {
  std::vector<double> op_ms;         ///< untraced timed ops
  std::vector<double> traced_op_ms;  ///< traced timed ops
  std::vector<double> setup_s;
  std::vector<double> write_us;
  /// Per-layer samples that are not span durations (CPU time, ratios).
  std::map<std::string, std::vector<double>> layer;
  /// Per-layer counts, and the run-level ratios set once at the end. The
  /// first value wins, so every count comes from the first traced op and
  /// does not depend on how many ops fit in the run.
  std::map<std::string, double> counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool consistent = true;

  void count(const std::string& name, double value) {
    counts.emplace(name, value);
  }
  void record(bool ok, double latency_ms, bool traced) {
    ++attempted;
    if (!ok) ++failed;
    (traced ? traced_op_ms : op_ms).push_back(latency_ms);
  }
};

struct Context {
  const RunOptions& options;
  const Input& input;
  ThreadPool* pool = nullptr;
  Tracer* tracer = nullptr;  ///< set for the whole of a traced run
  /// Traced runs without a pool: the pool graph.merge_speedup uses.
  ThreadPool* probe_pool = nullptr;
  Samples samples;

  [[nodiscard]] bool repairs() const {
    return options.spec->id == Workload::kRepairDense;
  }
};

/// Runs the warm-up op, then timed ops until `seconds` have passed. A
/// traced run alternates untraced and traced ops, so the two latencies
/// come from the same process and give the tracing overhead. Spans carry
/// the op's number: 1 for the warm-up, then 2, 3, ... (an online epoch's
/// set-up carries the number of the op that starts the epoch).
template <class Op>
void closed_loop(Context& ctx, Op&& op) {
  if (ctx.tracer != nullptr) ctx.tracer->set_op(1);
  op(/*timed=*/false, /*traced=*/false);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(ctx.options.seconds * 1e9);
  const std::uint64_t min_ops = ctx.options.trace ? 2 : 1;
  for (std::uint64_t i = 0; i < min_ops || now_ns() < deadline; ++i) {
    if (ctx.tracer != nullptr) ctx.tracer->set_op(i + 2);
    op(/*timed=*/true, /*traced=*/ctx.options.trace && i % 2 == 1);
  }
}

/// Repeats a graph merge outside the op, on the other side of the
/// pool/no-pool split from the op's own merge (which took `op_ms`), for
/// graph.merge_speedup.
template <class Merge>
void probe_speedup(Context& ctx, double op_ms, Merge&& merge) {
  ThreadPool* other = ctx.pool == nullptr ? ctx.probe_pool : nullptr;
  const std::int64_t start = now_ns();
  const UnifiedGraph graph =
      in_span(ctx.tracer, "graph.speedup_probe", [&] { return merge(other); });
  const double probe_ms = ms_between(start, now_ns());
  auto& layer = ctx.samples.layer;
  layer["graph.merge_nopool_ms"].push_back(other == nullptr ? probe_ms : op_ms);
  layer["graph.merge_pool_ms"].push_back(other == nullptr ? op_ms : probe_ms);
}

/// Says on stderr why the first failing op of a run failed.
void explain_failure(Context& ctx, const Verdict& verdict, const char* extra) {
  if (ctx.samples.failed > 0) return;
  std::fprintf(stderr,
               "perfbench: op failed: %zu findings, %zu false positives, "
               "%zu planted faults not detected with their root cause%s\n",
               verdict.findings, verdict.false_positives, verdict.missed,
               extra);
}

// ---- offline_aged and repair_dense ----------------------------------

/// Repairing rounds a repair_dense op may take before a check must come
/// back clean (the budget checker/convergence.h uses).
constexpr std::size_t kRepairRounds = 4;

/// The checks of one op through the checker's own entry point: one
/// check, or with `repair` run_checker with repairs until a check comes
/// back clean, for at most kRepairRounds repairing rounds.
struct CheckLoop {
  DetectionReport first;  ///< the first check's report
  bool clean = false;     ///< the last check came back clean
  std::size_t checks = 0;
};

CheckLoop check_until_clean(LustreCluster& cluster, ThreadPool* pool,
                            bool repair) {
  CheckerConfig config;
  config.pool = pool;
  config.apply_repairs = repair;
  const std::size_t max_checks = repair ? kRepairRounds + 1 : 1;
  CheckLoop loop;
  while (loop.checks < max_checks && !loop.clean) {
    CheckerResult result = run_checker(cluster, config);
    loop.clean = result.report.consistent();
    if (++loop.checks == 1) loop.first = std::move(result.report);
  }
  return loop;
}

/// The oracle of an offline op, on its first check's report.
bool verdict_ok(Context& ctx, const DetectionReport& first, bool clean) {
  const Verdict verdict = judge(first, ctx.input.truth);
  const bool converged = clean || !ctx.repairs();
  if (verdict.ok() && converged) return true;
  explain_failure(ctx, verdict, converged ? "" : ", no clean check");
  return false;
}

/// One untraced op, through the checker's own entry point as a user
/// runs it: restore the image (set-up), then check; repair_dense
/// repairs and re-checks until a check comes back clean.
void offline_op(Context& ctx, bool timed) {
  const std::int64_t load_start = now_ns();
  LustreCluster cluster = deserialize_cluster(ctx.input.image);
  const std::int64_t start = now_ns();
  const CheckLoop loop = check_until_clean(cluster, ctx.pool, ctx.repairs());
  const std::int64_t end = now_ns();
  if (!timed) return;
  ctx.samples.setup_s.push_back(ms_between(load_start, start) / 1e3);
  ctx.samples.record(verdict_ok(ctx, loop.first, loop.clean),
                     ms_between(start, end), /*traced=*/false);
}

/// What the first check of a traced op keeps for the merge probe.
struct FirstCheck {
  std::vector<PartialGraph> partials;
  double merge_ms = 0.0;
};

/// One check issued layer by layer through each layer's public entry
/// points, in pipeline order, each call in its own span. The first
/// check of an op (`first` set) records the per-layer counts and keeps
/// its partial graphs.
DetectionReport traced_check(Context& ctx, LustreCluster& cluster,
                             FirstCheck* first) {
  Tracer* tracer = ctx.tracer;
  Samples& s = ctx.samples;
  const Tracer::Scope check_span(*tracer, "checker.check");
  const CheckerConfig defaults;

  double cpu = process_cpu_ms();
  const ClusterScan scan = in_span(tracer, "scanner.scan", [&] {
    return scan_cluster(cluster, ctx.pool, defaults.mdt_disk,
                        defaults.ost_disk);
  });
  s.layer["scanner.cpu_ms"].push_back(process_cpu_ms() - cpu);

  // As the aggregator does: the MDS partial joins directly, each OSS
  // partial crosses the wire (encoded, counted, decoded).
  const std::size_t servers = scan.results.size();
  std::vector<PartialGraph> partials(servers);
  std::vector<std::uint64_t> wire(servers, 0);
  in_span(tracer, "aggregator.decode", [&] {
    const auto decode = [&](std::size_t i) {
      const ScanResult& result = scan.results[i];
      if (result.local_to_mds) {
        partials[i] = result.graph;
        return;
      }
      const std::vector<std::uint8_t> bytes = result.graph.serialize();
      wire[i] = bytes.size();
      partials[i] = PartialGraph::deserialize(bytes);
    };
    if (ctx.pool == nullptr) {
      for (std::size_t i = 0; i < servers; ++i) decode(i);
      return;
    }
    TaskGroup group(*ctx.pool);
    for (std::size_t i = 0; i < servers; ++i) {
      group.submit([&decode, i] { decode(i); });
    }
    group.wait();
  });

  cpu = process_cpu_ms();
  const std::int64_t merge_start = now_ns();
  const UnifiedGraph graph = in_span(tracer, "graph.aggregate", [&] {
    return UnifiedGraph::aggregate(partials, ctx.pool);
  });
  const double merge_ms = ms_between(merge_start, now_ns());
  s.layer["graph.merge_cpu_ms"].push_back(process_cpu_ms() - cpu);

  const PropagationPlan plan = in_span(tracer, "core.plan", [&] {
    return PropagationPlan::build(graph, defaults.rank.unpaired_weight,
                                  ctx.pool);
  });
  const FaultyRankResult ranks = in_span(tracer, "core.rank", [&] {
    return run_faultyrank(graph, plan, defaults.rank, ctx.pool);
  });
  DetectorConfig detector;
  detector.threshold = defaults.detection_threshold;
  detector.root = cluster.root();
  DetectionReport report = in_span(tracer, "core.detect", [&] {
    return detect_inconsistencies(graph, ranks, detector);
  });

  if (first != nullptr) {
    std::uint64_t wire_bytes = 0;
    double transfer_s = 0.0;
    for (std::size_t i = 0; i < servers; ++i) {
      if (scan.results[i].local_to_mds) continue;
      wire_bytes += wire[i];
      transfer_s += defaults.net.transfer(wire[i]);
    }
    s.count("scanner.inodes", static_cast<double>(scan.inodes_scanned));
    s.count("scanner.sim_s", scan.sim_seconds);
    s.count("aggregator.wire_mb", static_cast<double>(wire_bytes) / 1e6);
    s.count("aggregator.transfer_sim_s", transfer_s);
    s.count("graph.vertices", static_cast<double>(graph.vertex_count()));
    s.count("graph.edges", static_cast<double>(graph.edge_count()));
    s.count("graph.unpaired",
            static_cast<double>(graph.unpaired_edges().size()));
    s.count("graph.mb", static_cast<double>(graph.bytes()) / 1e6);
    s.count("core.plan_mb", static_cast<double>(plan.bytes()) / 1e6);
    s.count("core.iterations", static_cast<double>(ranks.iterations));
    s.count("core.findings", static_cast<double>(report.findings.size()));
    first->partials = std::move(partials);
    first->merge_ms = merge_ms;
  }
  return report;
}

void traced_offline_op(Context& ctx) {
  Tracer* tracer = ctx.tracer;
  LustreCluster cluster = in_span(tracer, "pfs.load", [&] {
    return deserialize_cluster(ctx.input.image);
  });
  const std::size_t max_checks = ctx.repairs() ? kRepairRounds + 1 : 1;
  FirstCheck kept;
  DetectionReport first;
  bool clean = false;
  std::size_t checks = 0;
  std::size_t planned = 0;
  std::size_t applied = 0;
  const std::int64_t start = now_ns();
  {
    const Tracer::Scope op_span(*tracer, "bench.op");
    while (checks < max_checks && !clean) {
      DetectionReport report =
          traced_check(ctx, cluster, checks == 0 ? &kept : nullptr);
      ++checks;
      clean = report.consistent();
      if (ctx.repairs() && !clean) {
        in_span(tracer, "checker.repair", [&] {
          const RepairPlan plan = report.repair_plan();
          planned += plan.size();
          for (const RepairOutcome& outcome :
               RepairExecutor(cluster).apply_all(plan)) {
            if (outcome.applied) ++applied;
          }
        });
      }
      if (checks == 1) first = std::move(report);
    }
  }
  const double latency_ms = ms_between(start, now_ns());

  probe_speedup(ctx, kept.merge_ms, [&](ThreadPool* pool) {
    return UnifiedGraph::aggregate(kept.partials, pool);
  });

  Samples& s = ctx.samples;
  s.count("checker.rounds", static_cast<double>(checks));
  s.count("checker.repairs_planned", static_cast<double>(planned));
  s.count("checker.repairs_applied", static_cast<double>(applied));
  s.record(verdict_ok(ctx, first, clean), latency_ms, /*traced=*/true);
}

void run_offline(Context& ctx) {
  closed_loop(ctx, [&](bool timed, bool traced) {
    if (traced) {
      traced_offline_op(ctx);
    } else {
      offline_op(ctx, timed);
    }
  });
}

// ---- online_churn -----------------------------------------------------

struct OnlineState {
  // Declaration order is teardown order in reverse: the checker goes
  // first, then the cluster it borrows, then the log the cluster writes.
  std::unique_ptr<ChangeLog> log;
  std::unique_ptr<LustreCluster> cluster;
  std::unique_ptr<OnlineChecker> checker;
};

/// The online set-up from the image bytes: load, attach the changelog,
/// bootstrap the checker's graph with one full scan.
OnlineState online_setup(Context& ctx) {
  OnlineState state;
  const std::int64_t start = now_ns();
  state.log = std::make_unique<ChangeLog>();
  state.cluster = in_span(ctx.tracer, "pfs.load", [&] {
    return std::make_unique<LustreCluster>(
        deserialize_cluster(ctx.input.image));
  });
  state.cluster->attach_changelog(state.log.get());
  OnlineCheckerConfig config;
  config.pool = ctx.pool;
  state.checker = std::make_unique<OnlineChecker>(*state.cluster, config);
  in_span(ctx.tracer, "online.bootstrap", [&] { state.checker->bootstrap(); });
  ctx.samples.setup_s.push_back(ms_between(start, now_ns()) / 1e3);
  return state;
}

/// Near-stationary traffic: names created (create + link) outnumber
/// names removed (unlink) by 0.06 per op, enough to keep every user's
/// file list far from empty once the prefill has run, so the namespace
/// barely grows over an epoch.
TrafficConfig traffic_config(std::uint64_t seed) {
  TrafficConfig config;
  config.seed = derive_seed(seed, 4);
  config.users = 4;
  config.mkdir_weight = 0.02;
  config.create_weight = 0.50;
  config.link_weight = 0.02;
  config.unlink_weight = 0.46;
  return config;
}

struct Round {
  OnlineCheckResult result;
  double latency_ms = 0.0;
  double check_ms = 0.0;
  std::size_t records = 0;
  std::size_t scrubbed = 0;
  /// Namespace ops TrafficDriver counted as failed during the round.
  std::uint64_t rejected = 0;
};

/// One round: a fixed batch of namespace ops, then catch_up, one
/// scrub_step and a check.
Round online_round(Context& ctx, OnlineState& state, TrafficDriver& traffic,
                   Tracer* tracer, bool timed) {
  Round round;
  const std::uint64_t failed_before = traffic.stats().failed;
  const std::int64_t start = now_ns();
  in_span(tracer, "online.round", [&] {
    for (std::size_t i = 0; i < kRoundOps; ++i) {
      const std::int64_t op_start = now_ns();
      in_span(tracer, "workload.traffic_step", [&] { traffic.step(1); });
      if (timed) {
        ctx.samples.write_us.push_back(
            static_cast<double>(now_ns() - op_start) / 1e3);
      }
    }
    round.records = in_span(tracer, "online.catch_up",
                            [&] { return state.checker->catch_up(); });
    round.scrubbed = in_span(tracer, "online.scrub_step",
                             [&] { return state.checker->scrub_step(); });
    const std::int64_t check_start = now_ns();
    round.result =
        in_span(tracer, "online.check", [&] { return state.checker->check(); });
    round.check_ms = ms_between(check_start, now_ns());
  });
  round.latency_ms = ms_between(start, now_ns());
  round.rejected = traffic.stats().failed - failed_before;
  return round;
}

/// Attributes a round's check by re-issuing, outside the round and on
/// the state it just checked, the calls OnlineChecker::check() makes:
/// freeze, plan build, rank, detect. The remainder of the check is its
/// self time. Like check(), it keeps the previous check's converged
/// ranks by FID for the warm start, so the re-issued rank runs the same
/// iterations and yields the same findings; a mismatch marks the run
/// inconsistent.
class CheckAttribution {
 public:
  explicit CheckAttribution(const Fid& root) : root_(root) {}

  /// `traced` false only carries the warm-start ranks forward.
  void after_round(Context& ctx, const OnlineChecker& checker,
                   const Round& round, bool traced) {
    Tracer* tracer = traced ? ctx.tracer : nullptr;
    Samples& s = ctx.samples;
    const OnlineCheckerConfig config;
    const double cpu = process_cpu_ms();
    std::int64_t mark = now_ns();
    const UnifiedGraph snapshot = in_span(
        tracer, "graph.freeze", [&] { return checker.graph().freeze(ctx.pool); });
    const double freeze_ms = ms_between(mark, now_ns());
    if (traced) {
      s.layer["graph.merge_cpu_ms"].push_back(process_cpu_ms() - cpu);
      mark = now_ns();
      const PropagationPlan plan = in_span(tracer, "core.plan", [&] {
        return PropagationPlan::build(snapshot, config.rank.unpaired_weight,
                                      ctx.pool);
      });
      const double plan_ms = ms_between(mark, now_ns());

      FaultyRankConfig rank_config = config.rank;
      std::vector<double> warm_id;
      std::vector<double> warm_prop;
      if (!last_ranks_.empty()) {
        warm_id.assign(snapshot.vertex_count(), rank_config.initial_rank);
        warm_prop.assign(snapshot.vertex_count(), rank_config.initial_rank);
        for (Gid v = 0; v < snapshot.vertex_count(); ++v) {
          const auto it = last_ranks_.find(snapshot.vertices().fid_of(v));
          if (it == last_ranks_.end()) continue;
          warm_id[v] = it->second.first;
          warm_prop[v] = it->second.second;
        }
        rank_config.initial_id_ranks = &warm_id;
        rank_config.initial_prop_ranks = &warm_prop;
      }
      mark = now_ns();
      const FaultyRankResult ranks = in_span(tracer, "core.rank", [&] {
        return run_faultyrank(snapshot, plan, rank_config, ctx.pool);
      });
      const double rank_ms = ms_between(mark, now_ns());

      DetectorConfig detector;
      detector.threshold = config.detection_threshold;
      detector.root = root_;
      mark = now_ns();
      const DetectionReport report = in_span(tracer, "core.detect", [&] {
        return detect_inconsistencies(snapshot, ranks, detector);
      });
      const double detect_ms = ms_between(mark, now_ns());

      s.layer["online.check_self_ms"].push_back(
          round.check_ms - (freeze_ms + plan_ms + rank_ms + detect_ms));
      probe_speedup(ctx, freeze_ms, [&](ThreadPool* pool) {
        return checker.graph().freeze(pool);
      });
      if (ranks.iterations != round.result.ranks.iterations ||
          report.findings.size() != round.result.report.findings.size()) {
        s.consistent = false;
      }
      s.count("graph.vertices", static_cast<double>(snapshot.vertex_count()));
      s.count("graph.edges", static_cast<double>(snapshot.edge_count()));
      s.count("graph.unpaired",
              static_cast<double>(snapshot.unpaired_edges().size()));
      s.count("graph.mb", static_cast<double>(snapshot.bytes()) / 1e6);
      s.count("core.plan_mb", static_cast<double>(plan.bytes()) / 1e6);
      s.count("core.iterations", static_cast<double>(ranks.iterations));
      s.count("core.findings", static_cast<double>(report.findings.size()));
      s.count("online.records", static_cast<double>(round.records));
      s.count("online.scrub_slots", static_cast<double>(round.scrubbed));
    }
    last_ranks_.clear();
    last_ranks_.reserve(snapshot.vertex_count());
    for (Gid v = 0; v < snapshot.vertex_count(); ++v) {
      last_ranks_.emplace(snapshot.vertices().fid_of(v),
                          std::pair(round.result.ranks.id_rank[v],
                                    round.result.ranks.prop_rank[v]));
    }
  }

 private:
  Fid root_;
  std::unordered_map<Fid, std::pair<double, double>, FidHash> last_ranks_;
};

/// online_churn runs in epochs. Each epoch sets up from the image
/// kEpochSetups times (one setup_s sample each, the last set-up kept),
/// issues the prefill, runs an untimed warm-up round, then kEpochRounds
/// timed rounds. The traffic seed is the same in every epoch, so every
/// epoch replays the same rounds on the same namespace: how far the
/// namespace grows, and so what a round costs, does not depend on how
/// many rounds a run completes. Set-up samples are spread over the whole
/// run.
void run_online(Context& ctx) {
  const bool attribute = ctx.tracer != nullptr;
  std::optional<OnlineState> state;
  std::optional<TrafficDriver> traffic;
  std::optional<CheckAttribution> attribution;
  std::size_t epoch_rounds = 0;
  std::vector<double> vertices;  // the current epoch's timed rounds
  std::size_t rounds = 0;
  std::size_t reused = 0;
  const auto count_drift = [&] {
    if (vertices.empty()) return;
    const double first = vertices.front();
    ctx.samples.count("online.vertex_drift_pct",
                      (vertices.back() - first) / first * 100.0);
  };
  const auto begin_epoch = [&] {
    // The previous epoch's memory goes before the next set-up.
    traffic.reset();
    for (std::size_t i = 0; i < kEpochSetups; ++i) {
      state.reset();
      state.emplace(online_setup(ctx));
    }
    traffic.emplace(*state->cluster, traffic_config(ctx.options.seed));
    traffic->step(kPrefillOps);
    attribution.emplace(state->cluster->root());
    const Round warm_up = online_round(ctx, *state, *traffic, nullptr, false);
    if (attribute) attribution->after_round(ctx, *state->checker, warm_up, false);
    epoch_rounds = 0;
    vertices.clear();
  };
  closed_loop(ctx, [&](bool timed, bool traced) {
    if (!timed || epoch_rounds == kEpochRounds) begin_epoch();
    if (!timed) return;
    const Round round = online_round(ctx, *state, *traffic,
                                     traced ? ctx.tracer : nullptr, true);
    const Verdict verdict = judge(round.result.report, ctx.input.truth);
    const bool ok = round.rejected == 0 && verdict.ok();
    if (!ok) {
      explain_failure(ctx, verdict,
                      round.rejected == 0 ? "" : ", namespace ops rejected");
    }
    ctx.samples.record(ok, round.latency_ms, traced);
    vertices.push_back(static_cast<double>(round.result.vertices));
    ++rounds;
    if (round.result.plan_reused) ++reused;
    if (attribute) attribution->after_round(ctx, *state->checker, round, traced);
    if (++epoch_rounds == kEpochRounds) count_drift();
  });
  count_drift();  // a run shorter than one epoch
  ctx.samples.count("online.plan_reuse_ratio",
                    static_cast<double>(reused) / static_cast<double>(rounds));
}

// ---- metrics ------------------------------------------------------------

std::vector<Metric> end_to_end(const Samples& s) {
  return {
      {"latency_p50_ms", median(s.op_ms), "ms"},
      {"peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1e6, "MB"},
      {"setup_s", median(s.setup_s), "s"},
  };
}

std::vector<Metric> per_layer(const Context& ctx,
                              const std::map<std::string, SpanStats>& spans) {
  const Samples& s = ctx.samples;
  const auto span_ms = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.median_ms;
  };
  const auto count = [&](const char* name) {
    const auto it = s.counts.find(name);
    return it == s.counts.end() ? 0.0 : it->second;
  };
  const auto layer = [&](const char* name) {
    const auto it = s.layer.find(name);
    return it == s.layer.end() ? 0.0 : median(it->second);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const bool online = ctx.options.spec->id == Workload::kOnlineChurn;
  const double untraced_ms = median(s.op_ms);
  return {
      {"pfs.load_ms", span_ms("pfs.load"), "ms"},
      {"pfs.image_mb", static_cast<double>(ctx.input.image.size()) / 1e6, "MB"},
      {"scanner.wall_ms", span_ms("scanner.scan"), "ms"},
      {"scanner.cpu_ms", layer("scanner.cpu_ms"), "ms"},
      {"scanner.inodes", count("scanner.inodes"), "count"},
      {"scanner.sim_s", count("scanner.sim_s"), "s"},
      {"aggregator.decode_ms", span_ms("aggregator.decode"), "ms"},
      {"aggregator.wire_mb", count("aggregator.wire_mb"), "MB"},
      {"aggregator.transfer_sim_s", count("aggregator.transfer_sim_s"), "s"},
      {"graph.merge_ms", span_ms(online ? "graph.freeze" : "graph.aggregate"),
       "ms"},
      {"graph.merge_cpu_ms", layer("graph.merge_cpu_ms"), "ms"},
      {"graph.merge_speedup",
       ratio(layer("graph.merge_nopool_ms"), layer("graph.merge_pool_ms")),
       "ratio"},
      {"graph.vertices", count("graph.vertices"), "count"},
      {"graph.edges", count("graph.edges"), "count"},
      {"graph.unpaired", count("graph.unpaired"), "count"},
      {"graph.mb", count("graph.mb"), "MB"},
      {"core.plan_ms", span_ms("core.plan"), "ms"},
      {"core.plan_mb", count("core.plan_mb"), "MB"},
      {"core.rank_ms", span_ms("core.rank"), "ms"},
      {"core.iterations", count("core.iterations"), "count"},
      {"core.detect_ms", span_ms("core.detect"), "ms"},
      {"core.findings", count("core.findings"), "count"},
      {"checker.check_ms", span_ms("checker.check"), "ms"},
      {"checker.repair_ms", span_ms("checker.repair"), "ms"},
      {"checker.repairs_planned", count("checker.repairs_planned"), "count"},
      {"checker.repairs_applied", count("checker.repairs_applied"), "count"},
      {"checker.repair_yield",
       ratio(count("checker.repairs_applied"), count("checker.repairs_planned")),
       "ratio"},
      {"checker.rounds", count("checker.rounds"), "count"},
      {"online.catch_up_ms", span_ms("online.catch_up"), "ms"},
      {"online.records", count("online.records"), "count"},
      {"online.scrub_ms", span_ms("online.scrub_step"), "ms"},
      {"online.scrub_slots", count("online.scrub_slots"), "count"},
      {"online.check_ms", span_ms("online.check"), "ms"},
      {"online.freeze_ms", span_ms("graph.freeze"), "ms"},
      {"online.check_self_ms", layer("online.check_self_ms"), "ms"},
      {"online.plan_reuse_ratio", count("online.plan_reuse_ratio"), "ratio"},
      {"online.vertex_drift_pct", count("online.vertex_drift_pct"), "%"},
      {"trace.overhead_pct",
       untraced_ms > 0.0
           ? (median(s.traced_op_ms) / untraced_ms - 1.0) * 100.0
           : 0.0,
       "%"},
  };
}

/// Modules every workload runs: pfs, graph (aggregate or freeze), core
/// and the tracer itself. Their metrics go on the result line. The other
/// modules run on some workloads only (scanner, aggregator and checker
/// on the offline ones, online on online_churn) and read 0 elsewhere, so
/// their metrics are printed above the result line instead.
bool on_every_workload(const std::string& name) {
  for (const char* module : {"pfs.", "graph.", "core.", "trace."}) {
    if (name.rfind(module, 0) == 0) return true;
  }
  return false;
}

void write_summary(const Context& ctx,
                   const std::map<std::string, SpanStats>& spans,
                   const std::vector<Metric>& metrics) {
  const std::string path = ctx.options.trace_prefix + ".summary.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %llu, \"workers\": %zu,\n",
               ctx.options.spec->name,
               static_cast<unsigned long long>(ctx.options.seed),
               ctx.options.workers);
  std::fprintf(out, " \"spans\": {");
  std::size_t i = 0;
  for (const auto& [name, stats] : spans) {
    std::fprintf(out,
                 "%s\n  \"%s\": {\"count\": %zu, \"median_ms\": %.6f, "
                 "\"median_self_ms\": %.6f, \"total_ms\": %.6f}",
                 i++ == 0 ? "" : ",", json_escape(name).c_str(), stats.count,
                 stats.median_ms, stats.median_self_ms, stats.total_ms);
  }
  std::fprintf(out, "},\n \"metrics\": %s}\n", metrics_json(metrics).c_str());
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + json_escape(metrics[i].name) +
           "\": {\"value\": " + buf + ", \"unit\": \"" +
           json_escape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}


RunResult run_workload(const RunOptions& options, const Input& input) {
  std::unique_ptr<ThreadPool> pool;
  if (options.workers > 0) pool = std::make_unique<ThreadPool>(options.workers);
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<ThreadPool> probe_pool;
  if (options.trace) {
    tracer = std::make_unique<Tracer>();
    if (!pool) probe_pool = std::make_unique<ThreadPool>(kSpeedupWorkers);
  }
  Context ctx{options, input, pool.get(), tracer.get(), probe_pool.get(), {}};

  if (options.spec->id == Workload::kOnlineChurn) {
    run_online(ctx);
  } else {
    run_offline(ctx);
  }

  RunResult result;
  result.attempted = ctx.samples.attempted;
  result.failed = ctx.samples.failed;
  result.consistent = ctx.samples.consistent;
  if (options.trace) {
    const auto spans = summarize(*tracer);
    const std::vector<Metric> layers = per_layer(ctx, spans);
    write_summary(ctx, spans, layers);
    for (const Metric& metric : layers) {
      (on_every_workload(metric.name) ? result.metrics : result.extra)
          .push_back(metric);
    }
    if (!tracer->write_chrome_trace(options.trace_prefix + ".trace.json")) {
      throw std::runtime_error("cannot write the trace");
    }
  } else {
    result.metrics = end_to_end(ctx.samples);
    if (options.spec->id == Workload::kOnlineChurn) {
      result.extra.push_back(
          {"latency_p90_ms", quantile(ctx.samples.op_ms, 0.9), "ms"});
      result.extra.push_back(
          {"write_p50_us", median(ctx.samples.write_us), "us"});
    }
  }
  result.extra.push_back(
      {"op_failure_rate",
       result.attempted > 0 ? static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted)
                            : 0.0,
       "ratio"});
  return result;
}

}  // namespace perfbench
