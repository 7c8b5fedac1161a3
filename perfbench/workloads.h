// The measured side of the benchmark: one closed-loop client (the next
// op starts only after the previous one completed) driving one workload
// for a fixed time, in its own process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  /// Traced run: alternate traced and untraced ops, report per-layer
  /// metrics, write the trace and its summary.
  bool trace = false;
  /// Worker-pool size; 0 runs without a pool (every measured run). On a
  /// shared 4-vCPU host a 3-worker pool was no faster and made run-to-run
  /// latency several times noisier: interleaved 12 s runs of offline_aged
  /// spanned 2.0-2.3 s without a pool and 2.1-3.5 s with one. Tests set
  /// it to check that counts do not depend on the pool.
  std::size_t workers = 0;
  /// Traced runs write <prefix>.trace.json and <prefix>.summary.json.
  std::string trace_prefix;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  /// Timed ops (the untimed warm-up op is not counted).
  std::uint64_t attempted = 0;
  /// Timed ops the oracle rejected.
  std::uint64_t failed = 0;
  /// The benchmark's own cross-checks held (traced runs: the attributed
  /// calls reproduced the online check they explain).
  bool consistent = true;
  /// What the result line reports: the end-to-end metrics of an
  /// untraced run, or the per-layer metrics every workload has of a
  /// traced one.
  std::vector<Metric> metrics;
  /// Reported on their own lines only: metrics that not every workload
  /// has, and the failure rate the result line already carries.
  std::vector<Metric> extra;
};

[[nodiscard]] RunResult run_workload(const RunOptions& options,
                                     const Input& input);

/// {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
[[nodiscard]] std::string metrics_json(const std::vector<Metric>& metrics);

}  // namespace perfbench
