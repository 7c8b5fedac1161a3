// Golden repair digests: every RepairOutcome and every repaired image,
// round by round, on repair_dense-shaped images built through src/ as
// perfbench/inputs.cpp builds them (1 MDS or 2 MDTs + 8 OSTs, the 8
// curated faults, one MetaFuzzer truncation of a DIRENT, LinkEA or
// LOVEA array per 20 files), at 2,000 files.
//
// The digests were recorded with the executor that answered every
// claimant question by walking all inode tables. The claimant index
// (DESIGN.md §5) must reproduce them exactly: the same applied flag
// and detail for every action, the same image bytes after every round.
// The seeds cover quarantine of MDT objects and of OST orphans,
// id overwrites with and without a carrier, contested-id
// re-identification (2 MDTs, seed 23), and loops of 4 to 6 checks.
//
// Regenerating: a change that alters repairs on purpose fails here and
// prints the table it computed. Paste that table over kGoldens and
// commit it on its own, saying why the repairs changed, as the project
// does for its rank goldens. A change to image generation
// (namespace_gen, FaultInjector, MetaFuzzer) fails the `input` digest
// first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "checker/checker.h"
#include "checker/repair_executor.h"
#include "common/random.h"
#include "faults/injector.h"
#include "faults/meta_fuzzer.h"
#include "pfs/cluster.h"
#include "pfs/persistence.h"
#include "workload/namespace_gen.h"

namespace faultyrank {
namespace {

constexpr std::uint64_t kFiles = 2000;
constexpr std::size_t kMaxRepairRounds = 6;

struct RoundDigest {
  std::uint64_t outcomes = 0;  ///< applied flag + detail of every action
  std::uint64_t image = 0;     ///< serialize_cluster after the round
  friend bool operator==(const RoundDigest&, const RoundDigest&) = default;
};

struct Golden {
  std::size_t mdts = 1;
  std::uint64_t seed = 0;
  std::uint64_t input = 0;  ///< serialize_cluster before any repair
  std::vector<RoundDigest> rounds;
  bool clean = false;  ///< a check after the last round came back clean
};

// clang-format off
const Golden kGoldens[] = {
    {1, 0, 0x232027045a0050b2ULL, {
        {0xdd3363969fa1515eULL, 0x37bd5cdac4f711b6ULL},
        {0xe200898f59cbff5cULL, 0x12a4ecd7e4aeb85fULL},
    }, true},
    {1, 9, 0x7f6a6a729c47f12dULL, {
        {0x3ba562724bf699b9ULL, 0xc8d93b4a0e51d095ULL},
        {0x3389ac77a36b66f2ULL, 0x105b2300027923d8ULL},
        {0xa00d3e4c6b2a97c6ULL, 0x839708bcf2db8072ULL},
    }, true},
    {1, 17, 0x6555520818ab6564ULL, {
        {0x155fb86586edc89aULL, 0xaef695a7693177b0ULL},
        {0xc421a1ac3afe6984ULL, 0x5d150208f1e3f33cULL},
        {0x431e8a0cef665aacULL, 0x3fde4d3610046c8bULL},
        {0xf5872e21d92b3827ULL, 0x1a7825ffb7879f54ULL},
    }, true},
    {2, 1, 0x1cbffb4d3fc9d730ULL, {
        {0x5a5bfe106d4d5cb4ULL, 0x82e216b86fc677d8ULL},
        {0x645e9cb25e0e0479ULL, 0xef85fe5bd72332f9ULL},
    }, true},
    {2, 23, 0x0d12ab6dd1add459ULL, {
        {0x27ed6639ca8268b3ULL, 0x40fc40682cb079fbULL},
        {0xdf5d77b0cc24941aULL, 0xb254682260785dc1ULL},
        {0xfcd73872cbe5109eULL, 0xf612039fba6c176bULL},
        {0x5f8fd208b4a38023ULL, 0x5f24f10a461ad0eaULL},
        {0xf5872e21d92b3827ULL, 0x6002efcf02fd9de5ULL},
    }, true},
};
// clang-format on

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t digest(const std::vector<std::uint8_t>& bytes) {
  return fnv1a(kFnvBasis, bytes.data(), bytes.size());
}

std::uint64_t digest(const std::vector<RepairOutcome>& outcomes) {
  std::uint64_t hash = kFnvBasis;
  for (const RepairOutcome& outcome : outcomes) {
    const unsigned char applied = outcome.applied ? 1 : 0;
    const unsigned char end = 0;
    hash = fnv1a(hash, &applied, 1);
    hash = fnv1a(hash, outcome.detail.data(), outcome.detail.size());
    hash = fnv1a(hash, &end, 1);
  }
  return hash;
}

/// perfbench's derive_seed: one independent stream per generator.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

std::vector<std::uint8_t> repair_dense_image(std::size_t mdts,
                                             std::uint64_t seed) {
  LustreCluster cluster(8, StripePolicy{64 * 1024, -1}, mdts);
  NamespaceConfig config;
  config.file_count = kFiles;
  config.seed = derive_seed(seed, 1);
  populate_namespace(cluster, config);
  FaultInjector injector(cluster, derive_seed(seed, 2));
  for (const Scenario scenario : FaultInjector::scenario_list()) {
    injector.inject(scenario);
  }
  constexpr FuzzKind kKinds[] = {FuzzKind::kTruncateDirents,
                                 FuzzKind::kTruncateLinkEa,
                                 FuzzKind::kTruncateLovEa};
  MetaFuzzer fuzzer(cluster, derive_seed(seed, 3));
  const std::size_t mutations = kFiles / 20;
  std::size_t applied = 0;
  for (std::size_t i = 0; applied < mutations && i < mutations * 4; ++i) {
    if (fuzzer.mutate(kKinds[i % std::size(kKinds)])) ++applied;
  }
  return serialize_cluster(cluster);
}

/// Check, repair, repeat, as run_checker with repairs does, recording
/// each round's digests.
Golden run(std::size_t mdts, std::uint64_t seed) {
  Golden got{mdts, seed, 0, {}, false};
  const std::vector<std::uint8_t> input = repair_dense_image(mdts, seed);
  got.input = digest(input);
  LustreCluster cluster = deserialize_cluster(input);
  for (std::size_t round = 0; round <= kMaxRepairRounds; ++round) {
    const CheckerResult check = run_checker(cluster, CheckerConfig{});
    if (check.report.consistent()) {
      got.clean = true;
      break;
    }
    if (round == kMaxRepairRounds) break;
    const std::vector<RepairOutcome> outcomes =
        RepairExecutor(cluster).apply_all(check.report.repair_plan());
    got.rounds.push_back(
        {digest(outcomes), digest(serialize_cluster(cluster))});
  }
  return got;
}

std::string render(const Golden& golden) {
  char line[96];
  std::snprintf(line, sizeof line,
                "    {%zu, %" PRIu64 ", 0x%016" PRIx64 "ULL, {", golden.mdts,
                golden.seed, golden.input);
  std::string out = line;
  for (const RoundDigest& round : golden.rounds) {
    std::snprintf(line, sizeof line,
                  "\n        {0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},",
                  round.outcomes, round.image);
    out += line;
  }
  out += golden.clean ? "\n    }, true},\n" : "\n    }, false},\n";
  return out;
}

TEST(RepairEquivalenceTest, RepairsMatchRecordedDigestsRoundByRound) {
  std::string table;
  bool all_match = true;
  for (const Golden& want : kGoldens) {
    const Golden got = run(want.mdts, want.seed);
    table += render(got);
    const std::string tag = std::to_string(want.mdts) + " MDT(s), seed " +
                            std::to_string(want.seed);
    if (got.input != want.input) {
      ADD_FAILURE() << tag << ": the input image changed (namespace, "
                    << "injector or fuzzer), not the executor";
      all_match = false;
      continue;
    }
    const std::size_t rounds =
        std::min(got.rounds.size(), want.rounds.size());
    for (std::size_t r = 0; r < rounds; ++r) {
      EXPECT_EQ(got.rounds[r].outcomes, want.rounds[r].outcomes)
          << tag << ", round " << r + 1 << ": repair outcomes differ";
      EXPECT_EQ(got.rounds[r].image, want.rounds[r].image)
          << tag << ", round " << r + 1 << ": repaired image differs";
    }
    EXPECT_EQ(got.rounds.size(), want.rounds.size()) << tag;
    EXPECT_EQ(got.clean, want.clean) << tag;
    all_match = all_match && got.rounds == want.rounds &&
                got.clean == want.clean;
  }
  if (!all_match) {
    ADD_FAILURE() << "computed digests (regenerate only on purpose, see "
                     "the header of this file):\n"
                  << table;
  }
}

}  // namespace
}  // namespace faultyrank
