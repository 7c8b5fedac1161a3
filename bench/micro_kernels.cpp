// google-benchmark micro-kernels for the building blocks: CSR
// construction, one rank iteration, pairing analysis, FID interning,
// scanning, and partial-graph serialization.
//
// Beyond the google-benchmark registrations, the binary has a
// machine-readable mode timing the planned rank kernel (DESIGN.md §9)
// against the naive reference and emitting BENCH_kernels.json:
//
//   micro_kernels --kernels_json=BENCH_kernels.json
//       [--kernels_scale=20] [--kernels_degree=32] [--kernels_threads=8]
//       [--kernels_iters=5] [--kernels_min_speedup=0] [--kernels_only]
//
// The graph defaults to the Table V high-degree point (RMAT-20, avg
// degree 32). The two kernels are timed back to back in 9 pairs; the
// reported speedup is the median of the per-pair ratios. Exits nonzero
// if the planned kernel's ranks are not bitwise equal to the
// reference's or its speedup falls below --kernels_min_speedup, so
// scripts/check.sh can gate on the smoke run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "aggregator/aggregator.h"
#include "checker/checker.h"
#include "common/timer.h"
#include "core/faultyrank.h"
#include "core/propagation_plan.h"
#include "graph/unified_graph.h"
#include "scanner/scanner.h"
#include "workload/namespace_gen.h"
#include "workload/rmat.h"

namespace faultyrank {
namespace {

void BM_CsrBuild(benchmark::State& state) {
  const auto scale = static_cast<std::uint32_t>(state.range(0));
  const GeneratedGraph g = generate_rmat({.scale = scale, .avg_degree = 8});
  for (auto _ : state) {
    benchmark::DoNotOptimize(Csr::build(g.vertex_count, g.edges));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.edges.size()));
}
BENCHMARK(BM_CsrBuild)->Arg(14)->Arg(16)->Arg(18);

void BM_UnifiedGraphBuild(benchmark::State& state) {
  const auto scale = static_cast<std::uint32_t>(state.range(0));
  const GeneratedGraph g = generate_rmat({.scale = scale, .avg_degree = 8});
  for (auto _ : state) {
    benchmark::DoNotOptimize(UnifiedGraph::from_edges(g.vertex_count, g.edges));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.edges.size()));
}
BENCHMARK(BM_UnifiedGraphBuild)->Arg(14)->Arg(16);

void BM_RankIteration(benchmark::State& state) {
  const auto scale = static_cast<std::uint32_t>(state.range(0));
  const GeneratedGraph g = generate_rmat({.scale = scale, .avg_degree = 8});
  const UnifiedGraph graph = UnifiedGraph::from_edges(g.vertex_count, g.edges);
  FaultyRankConfig config;
  config.max_iterations = 1;
  config.epsilon = 1e-30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_faultyrank(graph, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.edges.size()) * 2);
}
BENCHMARK(BM_RankIteration)->Arg(14)->Arg(16)->Arg(18);

void BM_RankIterationReference(benchmark::State& state) {
  const auto scale = static_cast<std::uint32_t>(state.range(0));
  const GeneratedGraph g = generate_rmat({.scale = scale, .avg_degree = 8});
  const UnifiedGraph graph = UnifiedGraph::from_edges(g.vertex_count, g.edges);
  FaultyRankConfig config;
  config.max_iterations = 1;
  config.epsilon = 1e-30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_faultyrank_reference(graph, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.edges.size()) * 2);
}
BENCHMARK(BM_RankIterationReference)->Arg(14)->Arg(16)->Arg(18);

void BM_RankIterationPlanned(benchmark::State& state) {
  const auto scale = static_cast<std::uint32_t>(state.range(0));
  const GeneratedGraph g = generate_rmat({.scale = scale, .avg_degree = 8});
  const UnifiedGraph graph = UnifiedGraph::from_edges(g.vertex_count, g.edges);
  FaultyRankConfig config;
  config.max_iterations = 1;
  config.epsilon = 1e-30;
  const PropagationPlan plan =
      PropagationPlan::build(graph, config.unpaired_weight);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_faultyrank(graph, plan, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.edges.size()) * 2);
}
BENCHMARK(BM_RankIterationPlanned)->Arg(14)->Arg(16)->Arg(18);

void BM_PropagationPlanBuild(benchmark::State& state) {
  const auto scale = static_cast<std::uint32_t>(state.range(0));
  const GeneratedGraph g = generate_rmat({.scale = scale, .avg_degree = 8});
  const UnifiedGraph graph = UnifiedGraph::from_edges(g.vertex_count, g.edges);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PropagationPlan::build(graph, 0.1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.edges.size()));
}
BENCHMARK(BM_PropagationPlanBuild)->Arg(14)->Arg(16)->Arg(18);

void BM_RankToConvergence(benchmark::State& state) {
  const auto scale = static_cast<std::uint32_t>(state.range(0));
  const GeneratedGraph g = generate_rmat({.scale = scale, .avg_degree = 8});
  const UnifiedGraph graph = UnifiedGraph::from_edges(g.vertex_count, g.edges);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_faultyrank(graph));
  }
}
BENCHMARK(BM_RankToConvergence)->Arg(14)->Arg(16);

void BM_ScanMdt(benchmark::State& state) {
  LustreCluster cluster(4, StripePolicy{64 * 1024, -1});
  NamespaceConfig config;
  config.file_count = static_cast<std::uint64_t>(state.range(0));
  config.seed = 7;
  populate_namespace(cluster, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan_mdt(cluster.mdt()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cluster.mdt_inodes_used()));
}
BENCHMARK(BM_ScanMdt)->Arg(1000)->Arg(5000);

void BM_PartialGraphSerde(benchmark::State& state) {
  LustreCluster cluster(4, StripePolicy{64 * 1024, -1});
  NamespaceConfig config;
  config.file_count = static_cast<std::uint64_t>(state.range(0));
  config.seed = 8;
  populate_namespace(cluster, config);
  const ScanResult scan = scan_mdt(cluster.mdt());
  for (auto _ : state) {
    const auto bytes = scan.graph.serialize();
    benchmark::DoNotOptimize(PartialGraph::deserialize(bytes));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(scan.graph.wire_bytes()));
}
BENCHMARK(BM_PartialGraphSerde)->Arg(1000)->Arg(5000);

void BM_EndToEndCheck(benchmark::State& state) {
  LustreCluster cluster(4, StripePolicy{64 * 1024, -1});
  NamespaceConfig config;
  config.file_count = static_cast<std::uint64_t>(state.range(0));
  config.seed = 9;
  populate_namespace(cluster, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_checker(cluster));
  }
}
BENCHMARK(BM_EndToEndCheck)->Arg(1000)->Arg(5000);

// ---------------------------------------------------------------------
// --kernels_json mode: the planned kernel against the naive reference
// on one graph, gated on bitwise-equal ranks.
// ---------------------------------------------------------------------

// Naive/planned timing pairs per comparison. On a shared host one
// timing of a millisecond-scale kernel swings several-fold; both sides
// of a pair see about the same load, and the median pair ratio holds
// still where one ratio does not.
constexpr std::size_t kKernelPairs = 9;

double median(std::vector<double> values) {
  const auto mid =
      values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

struct KernelCompareOptions {
  std::string json_path;
  std::uint32_t scale = 20;   // Table V stand-in
  std::uint32_t degree = 32;  // Table V's high-degree sweep point
  std::size_t threads = 8;
  std::size_t iters = 5;          // timed iterations per kernel
  double min_speedup = 0.0;       // floor on the planned speedup (0 = off)
  bool only = false;  // skip the google-benchmark suite afterwards
};

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

bool run_kernel_comparison(KernelCompareOptions options) {
  if (options.iters == 0) options.iters = 1;
  const GeneratedGraph g =
      generate_rmat({.scale = options.scale, .avg_degree = options.degree});
  const UnifiedGraph graph =
      UnifiedGraph::from_edges(g.vertex_count, g.edges);
  const double edge_count = static_cast<double>(graph.edge_count());

  ThreadPool pool(options.threads == 0 ? 1 : options.threads);
  ThreadPool* pool_ptr = options.threads == 0 ? nullptr : &pool;

  FaultyRankConfig config;
  config.max_iterations = options.iters;
  config.epsilon = 1e-300;  // never converges: every run does `iters`
  const double per_iter = static_cast<double>(options.iters);

  // Untimed warmups touch every page of both CSRs, the plan and the
  // rank arrays.
  FaultyRankConfig warmup = config;
  warmup.max_iterations = 1;
  (void)run_faultyrank_reference(graph, warmup, pool_ptr);

  WallTimer build_timer;
  const PropagationPlan plan =
      PropagationPlan::build(graph, config.unpaired_weight, pool_ptr);
  const double plan_build_seconds = build_timer.seconds();
  const std::uint64_t plan_bytes = plan.bytes();

  (void)run_faultyrank(graph, plan, warmup, pool_ptr);
  std::vector<double> naive_times;
  std::vector<double> planned_times;
  std::vector<double> ratios;
  bool bit_identical = true;
  for (std::size_t pair = 0; pair < kKernelPairs; ++pair) {
    WallTimer naive_timer;
    const FaultyRankResult naive =
        run_faultyrank_reference(graph, config, pool_ptr);
    naive_times.push_back(naive_timer.seconds() / per_iter);
    WallTimer run_timer;
    const FaultyRankResult planned =
        run_faultyrank(graph, plan, config, pool_ptr);
    planned_times.push_back(run_timer.seconds() / per_iter);
    ratios.push_back(planned_times.back() > 0.0
                         ? naive_times.back() / planned_times.back()
                         : 0.0);
    bit_identical = bit_identical &&
                    bits_equal(planned.id_rank, naive.id_rank) &&
                    bits_equal(planned.prop_rank, naive.prop_rank);
  }
  const double naive_per_iter = median(naive_times);
  const double planned_per_iter = median(planned_times);
  const double speedup = median(ratios);

  std::printf(
      "kernels (medians of %zu pairs): naive %.4f s/iter, planned %.4f "
      "s/iter (%.2fx)  plan %.2f B/edge  build %.3f s  bit_identical=%s\n",
      kKernelPairs, naive_per_iter, planned_per_iter, speedup,
      static_cast<double>(plan_bytes) / edge_count, plan_build_seconds,
      bit_identical ? "true" : "false");

  std::FILE* out = std::fopen(options.json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_kernels: cannot write %s\n",
                 options.json_path.c_str());
    return false;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"rank_kernels\",\n"
               "  \"graph\": {\"kind\": \"rmat\", \"scale\": %u, "
               "\"avg_degree\": %u, \"vertices\": %zu, \"edges\": %llu},\n"
               "  \"host_cpus\": %u,\n"
               "  \"threads\": %zu,\n"
               "  \"iterations\": %zu,\n"
               "  \"pairs\": %zu,\n"
               "  \"naive_seconds_per_iteration\": %.6e,\n"
               "  \"planned_seconds_per_iteration\": %.6e,\n"
               "  \"speedup\": %.3f,\n"
               "  \"plan_build_seconds\": %.6e,\n"
               "  \"plan_bytes\": %llu,\n"
               "  \"plan_bytes_per_edge\": %.2f,\n"
               "  \"bit_identical\": %s\n"
               "}\n",
               options.scale, options.degree, graph.vertex_count(),
               static_cast<unsigned long long>(graph.edge_count()),
               std::thread::hardware_concurrency(), options.threads,
               options.iters, kKernelPairs, naive_per_iter,
               planned_per_iter, speedup,
               plan_build_seconds, static_cast<unsigned long long>(plan_bytes),
               static_cast<double>(plan_bytes) / edge_count,
               bit_identical ? "true" : "false");
  std::fclose(out);

  if (!bit_identical) {
    std::fprintf(stderr,
                 "micro_kernels: the planned kernel broke its bit-identity "
                 "gate!\n");
    return false;
  }
  if (options.min_speedup > 0.0 && speedup < options.min_speedup) {
    std::fprintf(stderr,
                 "micro_kernels: planned speedup %.2fx is below the "
                 "--kernels_min_speedup floor %.2fx\n",
                 speedup, options.min_speedup);
    return false;
  }
  return true;
}

/// Parses one `--kernels_<name>=<value>` flag; false if `arg` is not a
/// kernels flag (and should go to google-benchmark instead).
bool parse_kernels_flag(const char* arg, KernelCompareOptions& options) {
  const auto value_of = [](const char* s) {
    const char* eq = std::strchr(s, '=');
    return std::string(eq == nullptr ? "" : eq + 1);
  };
  if (std::strncmp(arg, "--kernels_json", 14) == 0) {
    options.json_path = value_of(arg);
  } else if (std::strncmp(arg, "--kernels_scale", 15) == 0) {
    options.scale = static_cast<std::uint32_t>(std::stoul(value_of(arg)));
  } else if (std::strncmp(arg, "--kernels_degree", 16) == 0) {
    options.degree = static_cast<std::uint32_t>(std::stoul(value_of(arg)));
  } else if (std::strncmp(arg, "--kernels_threads", 17) == 0) {
    options.threads = std::stoul(value_of(arg));
  } else if (std::strncmp(arg, "--kernels_iters", 15) == 0) {
    options.iters = std::stoul(value_of(arg));
  } else if (std::strncmp(arg, "--kernels_min_speedup", 21) == 0) {
    options.min_speedup = std::stod(value_of(arg));
  } else if (std::strcmp(arg, "--kernels_only") == 0) {
    options.only = true;
  } else {
    return false;
  }
  return true;
}

}  // namespace
}  // namespace faultyrank

int main(int argc, char** argv) {
  faultyrank::KernelCompareOptions options;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (!faultyrank::parse_kernels_flag(argv[i], options)) {
      passthrough.push_back(argv[i]);
    }
  }
  if (!options.json_path.empty()) {
    if (!faultyrank::run_kernel_comparison(options)) return 1;
    if (options.only) return 0;
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
