// perfbench: the FaultyRank end-to-end benchmark binary (driven by run.py).
//
//   perfbench gen --workload W --seed N --out PREFIX [--files F]
//       generate the workload's image and ground truth into PREFIX.img
//       and PREFIX.truth
//   perfbench run --workload W --seed N --input PREFIX --seconds S
//                 --trace 0|1 [--workers K] [--trace-out PREFIX]
//       measure the workload for S seconds on that input
//
// `run` prints one "metric NAME VALUE UNIT" line per metric, then, as
// its last line, the JSON result. Exit codes: 0 correct, 1 an op failed
// its oracle, 2 bad usage, 3 any other error.
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>

#include "inputs.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench gen --workload W --seed N --out PREFIX "
               "[--files F]\n"
               "       perfbench run --workload W --seed N --input PREFIX "
               "--seconds S --trace 0|1 [--workers K] [--trace-out PREFIX]\n",
               why);
  return 2;
}

/// Parses "--name value" pairs; false on a stray or repeated argument.
bool parse_flags(int argc, char** argv,
                 std::map<std::string, std::string>& flags) {
  if ((argc - 2) % 2 != 0) return false;
  for (int i = 2; i < argc; i += 2) {
    const std::string name = argv[i];
    if (name.size() < 3 || name.rfind("--", 0) != 0) return false;
    if (!flags.emplace(name.substr(2), argv[i + 1]).second) return false;
  }
  return true;
}

int gen(const WorkloadSpec& spec, std::uint64_t seed,
        std::map<std::string, std::string>& flags) {
  const std::uint64_t files =
      flags.count("files") != 0 ? std::stoull(flags["files"]) : spec.files;
  if (flags.count("out") == 0) return usage("gen needs --out");
  const Input input = generate(spec, seed, files);
  save_input(input, flags["out"]);
  std::printf("generated %s seed %llu: %llu files, image %.3f MB, %zu "
              "planted, %zu touched FIDs\n",
              spec.name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(files),
              static_cast<double>(input.image.size()) / 1e6,
              input.truth.planted.size(), input.truth.touched.size());
  return 0;
}

int run(const WorkloadSpec& spec, std::uint64_t seed,
        std::map<std::string, std::string>& flags) {
  for (const char* required : {"input", "seconds", "trace"}) {
    if (flags.count(required) == 0) {
      return usage((std::string("run needs --") + required).c_str());
    }
  }
  RunOptions options;
  options.spec = &spec;
  options.seed = seed;
  options.seconds = std::stod(flags["seconds"]);
  options.trace = flags["trace"] == "1";
  if (!options.trace && flags["trace"] != "0") {
    return usage("--trace takes 0 or 1");
  }
  if (options.seconds <= 0.0) return usage("--seconds must be positive");
  if (flags.count("workers") != 0) {
    options.workers = std::stoull(flags["workers"]);
  }
  options.trace_prefix =
      flags.count("trace-out") != 0 ? flags["trace-out"] : flags["input"];

  const Input input = load_input(flags["input"]);
  const RunResult result = run_workload(options, input);
  const bool correct =
      result.attempted > 0 && result.failed == 0 && result.consistent;

  std::printf("workload %s seed %llu workers %zu image_mb %.3f\n", spec.name,
              static_cast<unsigned long long>(seed), options.workers,
              static_cast<double>(input.image.size()) / 1e6);
  if (!result.consistent) {
    std::printf("inconsistent: the attributed calls did not reproduce the "
                "online check\n");
  }
  for (const auto* list : {&result.metrics, &result.extra}) {
    for (const Metric& metric : *list) {
      std::printf("metric %s %.6g %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics_json(result.metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing command");
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  if (!parse_flags(argc, argv, flags)) return usage("malformed arguments");
  if (flags.count("workload") == 0 || flags.count("seed") == 0) {
    return usage("--workload and --seed are required");
  }
  const WorkloadSpec* spec = find_workload(flags["workload"]);
  if (spec == nullptr) return usage("unknown workload");
  try {
    const std::uint64_t seed = std::stoull(flags["seed"]);
    if (command == "gen") return gen(*spec, seed, flags);
    if (command == "run") return run(*spec, seed, flags);
    return usage("unknown command");
  } catch (const std::invalid_argument&) {
    return usage("a numeric flag is not a number");
  } catch (const std::out_of_range&) {
    return usage("a numeric flag is out of range");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 3;
  }
}
