// faultyrank_fsck — command-line front end for the whole toolkit.
//
//   faultyrank_fsck create  <image> [--files N] [--osts K] [--seed S]
//       build a synthetic LANL-like cluster and save its snapshot
//   faultyrank_fsck inject  <image> --scenario <name|all> [--seed S]
//       load, inject one (or all eight) inconsistency scenario(s), save
//   faultyrank_fsck check   <image> [--repair] [--verbose] [--json]
//                           [--undo FILE]
//       run the FaultyRank pipeline on the snapshot; with --repair,
//       apply the recommended fixes and write the image back
//   faultyrank_fsck lfsck   <image> [--repair]
//       run the rule-based LFSCK baseline instead
//   faultyrank_fsck compare <image>
//       run both checkers against separate loads of the same image
//   faultyrank_fsck restore <image> --undo FILE
//       roll an image back to a pre-repair undo snapshot
//   faultyrank_fsck scenarios
//       list injectable scenario names
#include <charconv>
#include <cstdio>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>

#include "checker/checker.h"
#include "common/memory_tracker.h"
#include "core/report.h"
#include "faults/injector.h"
#include "lfsck/lfsck.h"
#include "pfs/persistence.h"
#include "workload/namespace_gen.h"

using namespace faultyrank;

namespace {

struct Args {
  std::vector<std::string> positional;
  std::uint64_t files = 5000;
  std::size_t osts = 8;
  std::uint64_t seed = 42;
  std::string scenario;
  bool repair = false;
  bool verbose = false;
  bool json = false;
  std::string undo_path;
};

/// Parses `text` as a base-10 unsigned integer that must fill the whole
/// string and fit in T (no sign, no whitespace, no trailing junk).
template <typename T>
std::optional<T> parse_unsigned(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, 10);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    // A numeric flag whose value is missing or malformed fails the
    // whole parse, so main() prints usage and exits 2.
    const auto number = [&](auto& field) {
      const auto v = next();
      const auto parsed =
          v ? parse_unsigned<std::remove_reference_t<decltype(field)>>(*v)
            : std::nullopt;
      if (parsed) field = *parsed;
      return parsed.has_value();
    };
    if (arg == "--files") {
      if (!number(args.files)) return std::nullopt;
    } else if (arg == "--osts") {
      if (!number(args.osts)) return std::nullopt;
    } else if (arg == "--seed") {
      if (!number(args.seed)) return std::nullopt;
    } else if (arg == "--scenario") {
      const auto v = next();
      if (!v) return std::nullopt;
      args.scenario = *v;
    } else if (arg == "--repair") {
      args.repair = true;
    } else if (arg == "--verbose") {
      args.verbose = true;
    } else if (arg == "--json") {
      args.json = true;
    } else if (arg == "--undo") {
      const auto v = next();
      if (!v) return std::nullopt;
      args.undo_path = *v;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return std::nullopt;
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

int usage() {
  std::fprintf(stderr,
               "usage: faultyrank_fsck <create|inject|check|lfsck|compare|"
               "restore|scenarios> <image> [flags]\n"
               "  create  --files N --osts K --seed S\n"
               "  inject  --scenario <name|all> --seed S\n"
               "  check   [--repair] [--verbose] [--json] [--undo FILE]\n"
               "  lfsck   [--repair]\n"
               "  restore --undo FILE\n");
  return 2;
}

std::optional<Scenario> scenario_by_name(const std::string& name) {
  for (const Scenario scenario : kAllScenarios) {
    if (name == to_string(scenario)) return scenario;
  }
  return std::nullopt;
}

int cmd_create(const Args& args) {
  LustreCluster cluster(args.osts, StripePolicy{64 * 1024, -1});
  NamespaceConfig config;
  config.file_count = args.files;
  config.seed = args.seed;
  const NamespaceStats stats = populate_namespace(cluster, config);
  save_cluster(cluster, args.positional[1]);
  std::printf("created %s: %lu files, %lu dirs, %lu stripe objects on %zu "
              "OSTs\n",
              args.positional[1].c_str(),
              static_cast<unsigned long>(stats.files),
              static_cast<unsigned long>(stats.directories),
              static_cast<unsigned long>(stats.stripe_objects), args.osts);
  return 0;
}

int cmd_inject(const Args& args) {
  LustreCluster cluster = load_cluster(args.positional[1]);
  FaultInjector injector(cluster, args.seed);
  const auto inject_one = [&](Scenario scenario) {
    const GroundTruth truth = injector.inject(scenario);
    std::printf("injected %-36s victim=%s field=%s\n", to_string(scenario),
                truth.victim.to_string().c_str(),
                truth.id_field ? "id" : "property");
  };
  if (args.scenario == "all") {
    for (const Scenario scenario : kAllScenarios) inject_one(scenario);
  } else {
    const auto scenario = scenario_by_name(args.scenario);
    if (!scenario) {
      std::fprintf(stderr, "unknown scenario '%s' (try 'scenarios')\n",
                   args.scenario.c_str());
      return 2;
    }
    inject_one(*scenario);
  }
  save_cluster(cluster, args.positional[1]);
  return 0;
}

int cmd_check(const Args& args) {
  LustreCluster cluster = load_cluster(args.positional[1]);
  const std::uint64_t loaded_rss = rss_bytes();
  const std::uint64_t loaded_peak = peak_rss_bytes();
  ThreadPool pool;
  CheckerConfig config;
  config.pool = &pool;
  config.apply_repairs = args.repair;
  config.verify_after_repair = args.repair;
  config.capture_undo = args.repair && !args.undo_path.empty();
  const CheckerResult result = run_checker(cluster, config);
  const std::uint64_t checked_rss = rss_bytes();
  const std::uint64_t checked_peak = peak_rss_bytes();
  if (!result.undo_image.empty()) {
    // Throws PersistenceError on any failed write, so the image below is
    // never saved without an undo file to roll it back.
    atomic_write_file(result.undo_image, args.undo_path);
    if (!args.json) {
      std::printf("pre-repair undo image: %s (%zu bytes)\n",
                  args.undo_path.c_str(), result.undo_image.size());
    }
  }

  if (args.json) {
    std::fputs(render_json(result.report).c_str(), stdout);
    if (args.repair) save_cluster(cluster, args.positional[1]);
    return result.report.consistent() ||
                   (args.repair && result.verified_consistent)
               ? 0
               : 1;
  }

  std::printf("image: %lu MDS inodes, %lu OST objects\n",
              static_cast<unsigned long>(cluster.mdt_inodes_used()),
              static_cast<unsigned long>(cluster.total_ost_objects()));
  std::printf("graph: %lu vertices, %lu edges, %lu unpaired\n",
              static_cast<unsigned long>(result.vertices),
              static_cast<unsigned long>(result.edges),
              static_cast<unsigned long>(result.unpaired_edges));
  std::printf("timings: T_scan=%.2fs T_graph=%.2fs T_FR=%.3fs (simulated "
              "I/O + measured compute)\n",
              result.timings.t_scan_sim,
              result.timings.t_graph_sim + result.timings.t_graph_wall,
              result.timings.t_fr_wall);
  std::printf("findings: %zu\n", result.report.findings.size());
  const auto print_memory = [](const char* phase, std::uint64_t rss,
                               std::uint64_t peak) {
    char rss_buf[32], peak_buf[32];
    std::printf("memory: %-16s rss=%s peak=%s\n", phase,
                format_bytes(rss, rss_buf, sizeof(rss_buf)),
                format_bytes(peak, peak_buf, sizeof(peak_buf)));
  };
  print_memory("image loaded", loaded_rss, loaded_peak);
  print_memory("check complete", checked_rss, checked_peak);
  if (args.verbose) {
    std::fputs(render_text(result.report).c_str(), stdout);
  }
  if (args.repair) {
    std::printf("repairs applied: %zu; consistent after repair: %s\n",
                result.repairs_applied,
                result.verified_consistent ? "yes" : "NO");
    save_cluster(cluster, args.positional[1]);
  }
  return result.report.consistent() || (args.repair && result.verified_consistent)
             ? 0
             : 1;
}

int cmd_lfsck(const Args& args) {
  LustreCluster cluster = load_cluster(args.positional[1]);
  LfsckConfig config;
  config.repair = args.repair;
  const LfsckResult result = run_lfsck(cluster, config);
  std::printf("LFSCK: %zu events over %lu inodes (%lu RPCs), %.2fs "
              "simulated\n",
              result.events.size(),
              static_cast<unsigned long>(result.inodes_checked),
              static_cast<unsigned long>(result.rpcs_issued),
              result.sim_seconds);
  for (const LfsckEvent& event : result.events) {
    std::printf("  %-26s %s %s\n", to_string(event.kind),
                event.subject.to_string().c_str(), event.detail.c_str());
  }
  if (args.repair) save_cluster(cluster, args.positional[1]);
  return result.events.empty() ? 0 : 1;
}

int cmd_restore(const Args& args) {
  if (args.undo_path.empty()) {
    std::fprintf(stderr, "restore requires --undo FILE\n");
    return 2;
  }
  LustreCluster cluster = load_cluster(args.undo_path);
  save_cluster(cluster, args.positional[1]);
  std::printf("restored %s from %s\n", args.positional[1].c_str(),
              args.undo_path.c_str());
  return 0;
}

int cmd_compare(const Args& args) {
  std::printf("== FaultyRank ==\n");
  {
    LustreCluster cluster = load_cluster(args.positional[1]);
    ThreadPool pool;
    CheckerConfig config;
    config.pool = &pool;
    const CheckerResult result = run_checker(cluster, config);
    std::printf("findings=%zu total=%.2fs (T_scan=%.2f T_graph=%.2f "
                "T_FR=%.3f)\n",
                result.report.findings.size(), result.timings.total_sim(),
                result.timings.t_scan_sim,
                result.timings.t_graph_sim + result.timings.t_graph_wall,
                result.timings.t_fr_wall);
  }
  std::printf("== LFSCK baseline ==\n");
  {
    LustreCluster cluster = load_cluster(args.positional[1]);
    LfsckConfig config;
    config.repair = false;
    const LfsckResult result = run_lfsck(cluster, config);
    std::printf("events=%zu total=%.2fs\n", result.events.size(),
                result.sim_seconds);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args || args->positional.empty()) return usage();
  const std::string& command = args->positional[0];

  if (command == "scenarios") {
    for (const Scenario scenario : kAllScenarios) {
      std::printf("%s\n", to_string(scenario));
    }
    return 0;
  }
  if (args->positional.size() < 2) return usage();

  try {
    if (command == "create") return cmd_create(*args);
    if (command == "inject") return cmd_inject(*args);
    if (command == "check") return cmd_check(*args);
    if (command == "lfsck") return cmd_lfsck(*args);
    if (command == "compare") return cmd_compare(*args);
    if (command == "restore") return cmd_restore(*args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return usage();
}
