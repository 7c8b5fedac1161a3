#include "inputs.h"

#include <cstdio>
#include <stdexcept>

#include "common/random.h"
#include "faults/meta_fuzzer.h"
#include "pfs/cluster.h"
#include "pfs/persistence.h"
#include "workload/namespace_gen.h"

namespace perfbench {

using namespace faultyrank;

namespace {

// The Table VI setting, a repair-heavy image ten times smaller, and an
// online checker fed by namespace traffic.
constexpr WorkloadSpec kWorkloads[] = {
    {Workload::kOfflineAged, "offline_aged", 200000, true, 0.0},
    {Workload::kRepairDense, "repair_dense", 20000, false, 0.05},
    {Workload::kOnlineChurn, "online_churn", 25000, false, 0.0},
};

/// MetaFuzzer kinds repair_dense plants, cycled in this order: the
/// truncations of DIRENT, LinkEA and LOVEA arrays. At a density of one
/// mutation per 20 files, the other kinds made the number of repair
/// rounds an image needs, or whether it passes the oracle at all, depend
/// on the seed: identity bit flips left no clean check within 4 repair
/// rounds, duplicated FIDs took 3 or 4 rounds, and reference bit flips
/// or cloned DIRENT records mixed with the truncations left no clean
/// check, or hid a planted root cause, on more seeds than the
/// truncations alone (kRepairDenseSeeds).
constexpr FuzzKind kFuzzKinds[] = {
    FuzzKind::kTruncateDirents,
    FuzzKind::kTruncateLinkEa,
    FuzzKind::kTruncateLovEa,
};

/// The seeds repair_dense builds its images from: the first 64 seeds
/// whose 20k-file image passes the op oracle after two repair rounds.
/// Of the images of seeds 0 to 240, 14 fail the oracle: on 10 no check
/// comes back clean (repairs alternate between states; 18 and 66 are
/// below 68), and on 5 a planted root cause goes undetected (seed 95
/// fails both ways). Seeds 11 and 65 pass but need a third repair round,
/// which makes an op a third slower. `--seed n` selects entry n % 64.
/// Any seed therefore gives an image on which no op fails with the
/// checker as it is, every image costs about the same, and a change that
/// breaks detection or repair still fails the oracle.
constexpr std::uint64_t kRepairDenseSeeds[] = {
    0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 12, 13, 14, 15, 16,
    17, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33,
    34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49,
    50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 67,
};

void insert_fid(Truth& truth, const Fid& fid) {
  // A null FID would "involve" every vertex-level finding (their source
  // is null) and hide false positives.
  if (!fid.is_null()) truth.touched.insert(fid);
}

[[noreturn]] void bad_truth(const std::string& path, const std::string& why) {
  throw std::runtime_error(path + ": " + why);
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

Input generate(const WorkloadSpec& spec, std::uint64_t seed,
               std::uint64_t files) {
  if (spec.id == Workload::kRepairDense) {
    seed = kRepairDenseSeeds[seed % std::size(kRepairDenseSeeds)];
  }
  // The paper's testbed shape: 1 MDS + 8 OSTs, 64 KiB stripes over every
  // OST.
  LustreCluster cluster(8, StripePolicy{64 * 1024, -1});
  NamespaceConfig config;
  config.file_count = files;
  config.seed = derive_seed(seed, 1);
  populate_namespace(cluster, config);
  if (spec.aged) {
    age_cluster(cluster, config, /*cycles=*/2, /*churn_fraction=*/0.15);
  }

  Input input;
  FaultInjector injector(cluster, derive_seed(seed, 2));
  for (const Scenario scenario : FaultInjector::scenario_list()) {
    GroundTruth truth = injector.inject(scenario);
    insert_fid(input.truth, truth.victim);
    insert_fid(input.truth, truth.current);
    insert_fid(input.truth, truth.original_value);
    input.truth.planted.push_back(std::move(truth));
  }
  if (spec.fuzz_per_file > 0.0) {
    MetaFuzzer fuzzer(cluster, derive_seed(seed, 3));
    const auto mutations = static_cast<std::size_t>(
        spec.fuzz_per_file * static_cast<double>(files));
    // As MetaFuzzer::campaign, over kFuzzKinds only.
    std::size_t applied = 0;
    for (std::size_t i = 0; applied < mutations && i < mutations * 4; ++i) {
      const auto record = fuzzer.mutate(kFuzzKinds[i % std::size(kFuzzKinds)]);
      if (!record) continue;
      ++applied;
      for (const Fid& fid : record->touched) insert_fid(input.truth, fid);
    }
  }
  input.image = serialize_cluster(cluster);
  return input;
}

void save_input(const Input& input, const std::string& prefix) {
  atomic_write_file(input.image, prefix + ".img");
  const std::string path = prefix + ".truth";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  for (const GroundTruth& truth : input.truth.planted) {
    std::fprintf(out, "planted %u %s %s %d %s\n",
                 static_cast<unsigned>(truth.scenario),
                 truth.victim.to_string().c_str(),
                 truth.current.to_string().c_str(), truth.id_field ? 1 : 0,
                 truth.original_value.to_string().c_str());
  }
  for (const Fid& fid : input.truth.touched) {
    std::fprintf(out, "touched %s\n", fid.to_string().c_str());
  }
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

Input load_input(const std::string& prefix) {
  Input input;
  input.image = read_file_bytes(prefix + ".img");
  const std::string path = prefix + ".truth";
  std::FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) throw std::runtime_error("cannot read " + path);
  char kind[16];
  char victim[64];
  char current[64];
  char original[64];
  const auto fid = [&](const char* text) {
    const auto parsed = Fid::parse(text);
    if (!parsed) bad_truth(path, std::string("bad fid ") + text);
    return *parsed;
  };
  while (std::fscanf(in, "%15s", kind) == 1) {
    if (std::string_view(kind) == "planted") {
      unsigned scenario = 0;
      int id_field = 0;
      if (std::fscanf(in, "%u %63s %63s %d %63s", &scenario, victim, current,
                      &id_field, original) != 5 ||
          scenario >= std::size(kAllScenarios)) {
        std::fclose(in);
        bad_truth(path, "bad planted record");
      }
      GroundTruth truth;
      truth.scenario = kAllScenarios[scenario];
      truth.victim = fid(victim);
      truth.current = fid(current);
      truth.id_field = id_field != 0;
      truth.original_value = fid(original);
      input.truth.planted.push_back(truth);
    } else if (std::string_view(kind) == "touched" &&
               std::fscanf(in, "%63s", victim) == 1) {
      input.truth.touched.insert(fid(victim));
    } else {
      std::fclose(in);
      bad_truth(path, std::string("bad record ") + kind);
    }
  }
  std::fclose(in);
  return input;
}

Verdict judge(const DetectionReport& report, const Truth& truth) {
  Verdict verdict;
  verdict.findings = report.findings.size();
  const auto touched = [&](const Fid& fid) {
    return truth.touched.contains(fid);
  };
  for (const Finding& finding : report.findings) {
    // The involves rule of bench/crash_matrix.cpp.
    if (finding.unverifiable) continue;
    if (!touched(finding.convicted_object) && !touched(finding.source) &&
        !touched(finding.target) && !touched(finding.repair.target) &&
        !touched(finding.repair.value) && !touched(finding.repair.stale)) {
      ++verdict.false_positives;
    }
  }
  for (const GroundTruth& planted : truth.planted) {
    const EvalOutcome outcome = evaluate_report(report, planted);
    if (!outcome.detected || !outcome.root_cause_identified) ++verdict.missed;
  }
  return verdict;
}

}  // namespace perfbench
