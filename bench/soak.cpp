// Cluster-life soak harness: the cross-layer integration bench.
//
// One simulated cluster lives through sustained traffic while every
// subsystem built so far runs against it *at the same time*:
//
//   - a TrafficDriver streams logical namespace ops through the
//     ChangeLog (mkdir / create / link / unlink, seeded),
//   - a FaultInjector plants the paper's eight inconsistency scenarios
//     on a schedule, round-robin, recording injection sim-time,
//   - an OnlineChecker runs continuously: catch_up → scrub_step →
//     check each tick; detections trigger the repair-convergence
//     oracle, which must reach a clean check within bounded rounds,
//   - periodic *offline* verification passes run run_checker with a
//     persistent OpFaultSchedule (one OST crashes hard), exercising
//     degraded coverage and its recovery after revive().
//
// Measured: detection latency (injection → first finding, sim time),
// repair convergence rounds, degraded-coverage recovery time, and
// sustained ops/sec with the checker attached. Emits BENCH_soak.json;
// the whole run replays from the single seed printed there.
//
// Exit status 1 on any cross-layer invariant failure, so ctest and
// scripts/check.sh gate on it. `--smoke` shrinks the run for CI.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "checker/checker.h"
#include "checker/convergence.h"
#include "faults/injector.h"
#include "faults/op_faults.h"
#include "online/online_checker.h"
#include "pfs/changelog.h"
#include "workload/namespace_gen.h"
#include "workload/traffic.h"

using namespace faultyrank;

namespace {

/// Virtual cost of one scrubbed raw inode slot (background reads are
/// cheap sequential SSD/HDD hits; same order as the scanner's model).
constexpr double kScrubSecondsPerSlot = 100e-6;

struct SoakParams {
  std::uint64_t seed = 60601;
  bool smoke = false;
  std::size_t osts = 8;
  std::uint64_t files = 600;
  std::size_t users = 8;
  std::size_t ticks = 240;
  std::size_t ops_per_tick = 40;
  std::size_t scrub_steps_per_tick = 2;
  std::size_t scrub_batch = 192;
  std::size_t inject_every = 25;   ///< ticks between planted faults
  std::size_t cooldown_ticks = 4;  ///< quiet ticks at the end (plan reuse)
  std::size_t max_repair_rounds = 4;
};

SoakParams smoke_params() {
  SoakParams p;
  p.smoke = true;
  p.osts = 4;
  p.files = 250;
  p.users = 6;
  p.ticks = 40;
  p.ops_per_tick = 25;
  p.scrub_batch = 128;
  p.inject_every = 6;
  return p;
}

struct Planted {
  GroundTruth truth;
  double injected_sim = 0.0;
  double detected_sim = -1.0;  ///< <0 while undetected
  bool resolved = false;       ///< repaired through the oracle
};

struct Invariants {
  int failures = 0;

  void expect(bool ok, const char* what) {
    if (ok) return;
    ++failures;
    std::fprintf(stderr, "SOAK INVARIANT FAILED: %s\n", what);
  }
};

struct Metrics {
  std::size_t checks = 0;
  std::size_t plan_reused = 0;
  std::uint64_t scrub_slots = 0;
  std::size_t injections = 0;
  std::size_t injections_skipped = 0;
  std::size_t detections = 0;
  std::vector<double> latencies;
  std::size_t convergence_rounds_max = 0;
  std::size_t repairs_applied = 0;
  std::size_t offline_passes = 0;
  double degraded_start_sim = -1.0;
  double degraded_recovery_sim = -1.0;
  bool final_consistent = false;
};

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double max_of(const std::vector<double>& xs) {
  double best = 0.0;
  for (const double x : xs) best = std::max(best, x);
  return best;
}

class Soak {
 public:
  explicit Soak(const SoakParams& params)
      : params_(params),
        cluster_(params.osts, StripePolicy{64 * 1024, -1}),
        offline_faults_(offline_fault_config(params)),
        dead_label_("oss" + std::to_string(params.osts - 1)) {
    cluster_.attach_changelog(&log_);
    NamespaceConfig ns;
    ns.file_count = params_.files;
    ns.seed = params_.seed;
    populate_namespace(cluster_, ns);

    TrafficConfig traffic_config;
    traffic_config.seed = params_.seed * 31 + 5;
    traffic_config.users = params_.users;
    traffic_ = std::make_unique<TrafficDriver>(cluster_, traffic_config);

    OnlineCheckerConfig checker_config;
    checker_config.scrub_batch = params_.scrub_batch;
    checker_ = std::make_unique<OnlineChecker>(cluster_, checker_config);
    checker_->bootstrap();

    injector_ = std::make_unique<FaultInjector>(cluster_, params_.seed ^ 0xfa);
  }

  int run(const char* out_path);

 private:
  static OpFaultConfig offline_fault_config(const SoakParams& params) {
    OpFaultConfig config;
    config.seed = params.seed;
    config.transient_eio_rate = 0.03;
    config.crash_after_reads["oss" + std::to_string(params.osts - 1)] = 30;
    return config;
  }

  void tick(std::size_t index);
  void inject_next();
  void converge(const char* why);
  void offline_pass(std::size_t index);
  void write_json(const char* path) const;

  SoakParams params_;
  LustreCluster cluster_;
  ChangeLog log_;
  OpFaultSchedule offline_faults_;
  std::string dead_label_;
  std::unique_ptr<TrafficDriver> traffic_;
  std::unique_ptr<OnlineChecker> checker_;
  std::unique_ptr<FaultInjector> injector_;

  std::vector<Planted> planted_;
  std::size_t next_scenario_ = 0;
  double sim_seconds_ = 0.0;
  double traffic_sim_seen_ = 0.0;
  Metrics metrics_;
  Invariants invariants_;
};

void Soak::inject_next() {
  const std::span<const Scenario> scenarios = FaultInjector::scenario_list();
  const Scenario scenario = scenarios[next_scenario_ % scenarios.size()];
  ++next_scenario_;
  try {
    Planted p;
    p.truth = injector_->inject(scenario);
    p.injected_sim = sim_seconds_;
    planted_.push_back(std::move(p));
    ++metrics_.injections;
  } catch (const InjectionError& error) {
    // No eligible victim right now (e.g. every candidate already used);
    // the stream simply continues.
    ++metrics_.injections_skipped;
    std::fprintf(stderr, "inject %s skipped: %s\n", to_string(scenario),
                 error.what());
  }
}

void Soak::converge(const char* why) {
  const ConvergenceResult result =
      repair_until_clean(cluster_, *checker_, params_.max_repair_rounds);
  metrics_.convergence_rounds_max =
      std::max(metrics_.convergence_rounds_max, result.repair_rounds);
  metrics_.repairs_applied += result.repairs_applied;
  invariants_.expect(result.clean, why);
  // The oracle's full scrubs see every outstanding fault; whatever the
  // incremental scrub had not reached yet is detected (and repaired)
  // now, so its first-finding time is the current sim time.
  for (Planted& p : planted_) {
    if (!p.resolved) {
      if (p.detected_sim < 0) {
        p.detected_sim = sim_seconds_;
        ++metrics_.detections;
        metrics_.latencies.push_back(p.detected_sim - p.injected_sim);
      }
      p.resolved = true;
    }
  }
}

void Soak::tick(std::size_t index) {
  const bool quiet = index >= params_.ticks;  // cooldown: no traffic
  if (!quiet) {
    traffic_->step(params_.ops_per_tick);
    const double traffic_sim = traffic_->stats().sim_seconds;
    sim_seconds_ += traffic_sim - traffic_sim_seen_;
    traffic_sim_seen_ = traffic_sim;
    if (index % params_.inject_every == params_.inject_every - 1) {
      inject_next();
    }
  }

  checker_->catch_up();
  for (std::size_t s = 0; s < params_.scrub_steps_per_tick; ++s) {
    checker_->scrub_step();
  }
  const std::uint64_t slots =
      params_.scrub_steps_per_tick * params_.scrub_batch;
  metrics_.scrub_slots += slots;
  sim_seconds_ += static_cast<double>(slots) * kScrubSecondsPerSlot;

  const OnlineCheckResult check = checker_->check();
  ++metrics_.checks;
  if (check.plan_reused) ++metrics_.plan_reused;
  sim_seconds_ += check.freeze_wall_seconds + check.rank_wall_seconds;

  bool newly_detected = false;
  for (Planted& p : planted_) {
    if (p.resolved || p.detected_sim >= 0) continue;
    if (evaluate_report(check.report, p.truth).detected) {
      p.detected_sim = sim_seconds_;
      ++metrics_.detections;
      metrics_.latencies.push_back(p.detected_sim - p.injected_sim);
      newly_detected = true;
    }
  }
  if (newly_detected) {
    converge("repair convergence after online detection");
  }
}

void Soak::offline_pass(std::size_t index) {
  ++metrics_.offline_passes;
  if (index == 2) {
    // Third pass: the operator brings the dead OST back.
    offline_faults_.server(dead_label_).revive();
  }
  CheckerConfig config;
  config.faults = &offline_faults_;
  const CheckerResult result = run_checker(cluster_, config);
  sim_seconds_ += result.timings.t_scan_sim + result.timings.t_graph_sim;

  if (index < 2) {
    // The crashed OST's latch survives rescans, so both passes before
    // the revive run degraded.
    invariants_.expect(result.coverage.coverage < 1.0,
                       index == 0 ? "crashed OST degraded offline coverage"
                                  : "dead OST still down on second pass");
    if (index == 0) metrics_.degraded_start_sim = sim_seconds_;
    return;
  }

  // After the revive, coverage must return to 100%; the recovery time
  // is measured in sim seconds.
  invariants_.expect(result.coverage.coverage == 1.0,
                     "revived OST restored full offline coverage");
  invariants_.expect(result.failed_servers.empty(),
                     "no failed servers after revive");
  if (metrics_.degraded_start_sim >= 0) {
    metrics_.degraded_recovery_sim = sim_seconds_ - metrics_.degraded_start_sim;
  }
}

void Soak::write_json(const char* path) const {
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  const TrafficStats& t = traffic_->stats();
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"soak\",\n");
  std::fprintf(out, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(params_.seed));
  std::fprintf(out, "  \"smoke\": %s,\n", params_.smoke ? "true" : "false");
  std::fprintf(out, "  \"osts\": %zu,\n", params_.osts);
  std::fprintf(out, "  \"ticks\": %zu,\n", params_.ticks);
  std::fprintf(out, "  \"sim_seconds\": %.6f,\n", sim_seconds_);
  std::fprintf(out,
               "  \"traffic\": {\"attempted\": %llu, \"succeeded\": %llu, "
               "\"failed\": %llu, \"ops_per_sim_sec\": %.1f},\n",
               static_cast<unsigned long long>(t.attempted),
               static_cast<unsigned long long>(t.succeeded),
               static_cast<unsigned long long>(t.failed),
               sim_seconds_ > 0
                   ? static_cast<double>(t.succeeded) / sim_seconds_
                   : 0.0);
  std::fprintf(out,
               "  \"injections\": {\"planted\": %zu, \"skipped\": %zu, "
               "\"detected\": %zu,\n"
               "    \"detection_latency_sim_mean\": %.6f, "
               "\"detection_latency_sim_max\": %.6f},\n",
               metrics_.injections, metrics_.injections_skipped,
               metrics_.detections, mean_of(metrics_.latencies),
               max_of(metrics_.latencies));
  std::fprintf(out,
               "  \"repair\": {\"convergence_rounds_max\": %zu, "
               "\"repairs_applied\": %zu},\n",
               metrics_.convergence_rounds_max, metrics_.repairs_applied);
  std::fprintf(out,
               "  \"checker\": {\"checks\": %zu, \"plan_reuse_rate\": %.3f, "
               "\"scrub_slots\": %llu},\n",
               metrics_.checks,
               metrics_.checks > 0
                   ? static_cast<double>(metrics_.plan_reused) /
                         static_cast<double>(metrics_.checks)
                   : 0.0,
               static_cast<unsigned long long>(metrics_.scrub_slots));
  std::fprintf(out,
               "  \"offline\": {\"passes\": %zu, "
               "\"degraded_recovery_sim_seconds\": %.6f},\n",
               metrics_.offline_passes, metrics_.degraded_recovery_sim);
  std::fprintf(out, "  \"final_consistent\": %s,\n",
               metrics_.final_consistent ? "true" : "false");
  std::fprintf(out, "  \"invariant_failures\": %d\n", invariants_.failures);
  std::fprintf(out, "}\n");
  std::fclose(out);
}

int Soak::run(const char* out_path) {
  // Offline verification passes fire at the quarter points.
  const std::size_t verify_at[3] = {params_.ticks / 4, params_.ticks / 2,
                                    (3 * params_.ticks) / 4};
  for (std::size_t index = 0; index < params_.ticks; ++index) {
    tick(index);
    for (std::size_t v = 0; v < 3; ++v) {
      if (index == verify_at[v]) offline_pass(v);
    }
  }
  // Final drain: repair everything still outstanding, then quiet ticks
  // where an unchanged graph must reuse its snapshot + plan.
  converge("final repair convergence drains every planted fault");
  for (std::size_t index = 0; index < params_.cooldown_ticks; ++index) {
    tick(params_.ticks + index);
  }

  checker_->catch_up();
  checker_->full_scrub();
  const OnlineCheckResult final_check = checker_->check();
  metrics_.final_consistent = final_check.report.consistent();
  invariants_.expect(metrics_.final_consistent,
                     "soak ends with a fully consistent filesystem");
  invariants_.expect(metrics_.detections == metrics_.injections,
                     "every planted fault was detected");
  invariants_.expect(metrics_.injections > 0, "campaign planted faults");

  write_json(out_path);
  const TrafficStats& t = traffic_->stats();
  std::printf(
      "soak %s seed=%llu: %zu ticks, %llu ops (%llu failed), "
      "%.1f sim-s, %zu/%zu faults detected "
      "(latency mean %.3fs max %.3fs), repair rounds<=%zu, "
      "plan reuse %zu/%zu, degraded recovery %.3f sim-s, %s\n",
      params_.smoke ? "smoke" : "full",
      static_cast<unsigned long long>(params_.seed), params_.ticks,
      static_cast<unsigned long long>(t.attempted),
      static_cast<unsigned long long>(t.failed), sim_seconds_,
      metrics_.detections, metrics_.injections, mean_of(metrics_.latencies),
      max_of(metrics_.latencies), metrics_.convergence_rounds_max,
      metrics_.plan_reused, metrics_.checks, metrics_.degraded_recovery_sim,
      invariants_.failures == 0 ? "ok" : "FAIL");
  return invariants_.failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_soak.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out FILE]\n", argv[0]);
      return 2;
    }
  }
  const SoakParams params = smoke ? smoke_params() : SoakParams{};
  Soak soak(params);
  return soak.run(out_path);
}
