// The benchmark's workloads, the images it generates for them, and the
// ground truth an op's findings are judged against.
//
// Generation belongs to the benchmark, not to the system under test: it
// runs in its own process, and the measured process receives only the
// serialized image plus the ground truth. An image is a pure function of
// (workload, seed, file count).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/fid.h"
#include "core/detector.h"
#include "faults/injector.h"

namespace perfbench {

enum class Workload : std::uint8_t { kOfflineAged, kRepairDense, kOnlineChurn };

struct WorkloadSpec {
  Workload id = Workload::kOfflineAged;
  const char* name = "";
  std::uint64_t files = 0;  ///< namespace size at the reference scale
  bool aged = false;        ///< two delete/re-create cycles at 15 % churn
  /// MetaFuzzer mutations per file (on top of the 8 curated scenarios).
  double fuzz_per_file = 0.0;
};

/// nullptr when `name` is not a workload.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// FIDs a planted fault disturbed. A verifiable finding that involves
/// none of them is a false positive.
struct Truth {
  std::vector<faultyrank::GroundTruth> planted;
  std::unordered_set<faultyrank::Fid, faultyrank::FidHash> touched;
};

struct Input {
  std::vector<std::uint8_t> image;  ///< serialize_cluster bytes
  Truth truth;
};

/// Builds the workload's cluster on 1 MDS + 8 OSTs, plants the 8 curated
/// scenarios (and, for repair_dense, the fuzz campaign) and serializes it.
/// Nothing of the checker runs here.
[[nodiscard]] Input generate(const WorkloadSpec& spec, std::uint64_t seed,
                             std::uint64_t files);

/// Writes `prefix`.img and `prefix`.truth.
void save_input(const Input& input, const std::string& prefix);
/// Reads what save_input wrote; throws std::runtime_error on a bad file.
[[nodiscard]] Input load_input(const std::string& prefix);

/// How one detection report scores against the truth.
struct Verdict {
  std::size_t findings = 0;
  std::size_t false_positives = 0;
  /// Planted faults not detected with their root cause (evaluate_report).
  std::size_t missed = 0;

  [[nodiscard]] bool ok() const noexcept {
    return false_positives == 0 && missed == 0;
  }
};

[[nodiscard]] Verdict judge(const faultyrank::DetectionReport& report,
                            const Truth& truth);

/// Independent 64-bit stream `stream` of `seed` (splitmix64 mix).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

}  // namespace perfbench
