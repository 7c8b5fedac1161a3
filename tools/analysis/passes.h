// The fr_analyze passes (DESIGN.md §8, §11, §13, §16).
//
// Intra-procedural (corpus-wide token view):
//
//   lock-order-cycle        Any directed cycle in the global MutexLock
//                           acquired-after graph, reported with the
//                           full witness path (file:line per edge).
//   sim-time                Real-time calls (sleep_*, system_clock /
//                           steady_clock::now, raw time()) in pipeline
//                           code (src/) outside the two blessed homes:
//                           common/sim_clock.* (virtual time) and
//                           common/timer.h (the bench stopwatch). Real
//                           time in the pipeline silently breaks the
//                           reproducible virtual-clock accounting.
//   determinism-reduction   Floating-point `+=`/`-=` into a captured
//                           variable (or std::accumulate) inside a
//                           parallel_for / parallel_for_ranges lambda:
//                           cross-thread accumulation orders float
//                           additions by scheduling, breaking the
//                           bit-identical-across-pool-sizes guarantee.
//                           Reductions go through the fixed-block
//                           helper (reduce_block_sum) or write
//                           disjoint indexed slots.
//
// Interprocedural (call-graph summaries, analysis/summaries.h):
//
//   lock-order-cycle-transitive
//                           A lock cycle that only closes through call
//                           chains: a call made under lock A reaching
//                           an acquisition of B in a callee induces the
//                           edge A→B. Reported with the full
//                           inter-function witness; cycles already
//                           visible to the direct pass are not
//                           re-reported.
//   blocking-under-lock     A blocking primitive (CondVar wait family,
//                           thread join, file I/O) reachable — directly
//                           or through summarized callees — while a
//                           scoped lock is held. The lock a
//                           `cv.wait(lock)` releases is exempt at that
//                           site.
//   determinism-taint       Iteration over an unordered container
//                           (hash order = address order = run order)
//                           flowing into an output or reduction sink:
//                           emitted bytes or float accumulation pick up
//                           the hash-seed ordering and runs stop being
//                           bit-identical.
//   guarded-by-coverage     A write to an FR_GUARDED_BY field on a path
//                           where no caller up to a root function holds
//                           the guard (FR_REQUIRES on a definition head
//                           counts as held).
//
// Wire-schema (reconstructed serdes model, analysis/wire_schema.h):
//
//   serdes-asymmetry        A paired writer/reader disagree on field
//                           kind, scalar width, or sequence length —
//                           reported with file:line witnesses on both
//                           sides of the first divergence.
//   unchecked-wire-count    A count read from the wire (ByteReader::get
//                           or raw fread) reaches resize()/reserve()/a
//                           loop bound without bounded_count or an
//                           explicit comparison first.
//   schema-drift            Computed schema fingerprints diverge from
//                           the committed tools/analysis/
//                           wire_schemas.json: a schema change without
//                           a format-version-constant bump in the
//                           writer's TU fails the gate, and so does a
//                           committed entry whose writer/reader pair
//                           is gone.
//
// Line rules (one file's scrubbed-line view, SourceFile::scrubbed):
//
//   mutex-needs-guards      A mutex declaration (std::mutex,
//                           std::shared_mutex, Mutex, SharedMutex) that
//                           no FR_GUARDED_BY / FR_PT_GUARDED_BY /
//                           FR_REQUIRES / FR_ACQUIRE-style annotation in
//                           the same file names: the thread-safety
//                           analysis has nothing to check against it.
//   no-raw-thread           std::thread / std::jthread / std::async /
//                           pthread_create outside common/thread_pool.*:
//                           task groups, stealing and shutdown stay the
//                           only concurrency protocol.
//   no-c-random             rand() / srand() / rand_r(): randomness
//                           flows through common/random.h so runs
//                           reproduce from one seed.
//   no-iostream-in-lib      #include <iostream> in library code (src/),
//                           which prints nothing: it returns text, and
//                           tools/ and bench/ print it via <cstdio>.
//   no-unbounded-retry      A condition-driven loop (`while`,
//                           `for (;;)`, or a `for` whose header talks
//                           about retrying) mentioning retry/backoff
//                           with no bound (max_attempts, max_retries,
//                           attempt_limit, retry_budget, deadline):
//                           it spins forever against a server that
//                           stays down. Counted `for` loops are exempt.
//   crash-point-required    A function in PFS code (paths containing
//                           "pfs") applying two or more distinct
//                           metadata sub-updates (DIRENT insert/erase,
//                           LinkEA append, erase_if) with no
//                           FR_CRASH_POINT between them: crash-state
//                           enumeration (DESIGN.md §15) can never
//                           interrupt it.
//
// A line can opt out with a trailing `// fr_analyze: allow(rule-id)`.
// Every violation carries a line-insensitive fingerprint for the
// baseline gate (analysis/baseline.h).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "analysis/call_graph.h"
#include "analysis/include_graph.h"
#include "analysis/lock_graph.h"
#include "analysis/summaries.h"
#include "analysis/symbols.h"
#include "analysis/token.h"
#include "analysis/violation.h"
#include "analysis/wire_schema.h"

namespace fr_analysis {

/// Every rule id fr_analyze can emit (the fixture self-test demands
/// each appears in exactly one EXPECT header).
inline constexpr std::array<const char*, 16> kAnalyzeRuleIds = {
    "lock-order-cycle",    "sim-time",
    "determinism-reduction", "lock-order-cycle-transitive",
    "blocking-under-lock", "determinism-taint",
    "guarded-by-coverage", "serdes-asymmetry",
    "unchecked-wire-count", "schema-drift",
    "mutex-needs-guards",  "no-raw-thread",
    "no-c-random",         "no-iostream-in-lib",
    "no-unbounded-retry",  "crash-point-required"};

struct PassOptions {
  /// Self-test mode: treat every file as pipeline code (src/), so the
  /// sim-time and no-iostream-in-lib rules are live on fixtures
  /// regardless of their path.
  bool treat_all_as_src = false;
  /// Committed schema fingerprints to diff against. Empty disables the
  /// schema-drift pass (the other wire passes are always live).
  std::string schemas_path;
};

[[nodiscard]] std::vector<Violation> run_lock_order_pass(
    const LockGraph& graph, const std::vector<SourceFile>& files);

[[nodiscard]] std::vector<Violation> run_sim_time_pass(
    const std::vector<SourceFile>& files, const PassOptions& options);

[[nodiscard]] std::vector<Violation> run_determinism_pass(
    const std::vector<SourceFile>& files);

/// Cycles in direct ∪ call-chain-induced edges that need at least one
/// induced edge to close (everything else is the direct pass's job).
[[nodiscard]] std::vector<Violation> run_lock_order_transitive_pass(
    const LockGraph& direct, const Summaries& summaries,
    const std::vector<SourceFile>& files);

[[nodiscard]] std::vector<Violation> run_blocking_under_lock_pass(
    const Summaries& summaries, const std::vector<SourceFile>& files);

[[nodiscard]] std::vector<Violation> run_determinism_taint_pass(
    const std::vector<SourceFile>& files, const CallGraph& graph,
    const Summaries& summaries, const IncludeGraph& includes);

[[nodiscard]] std::vector<Violation> run_guarded_by_pass(
    const Summaries& summaries, const std::vector<SourceFile>& files);

/// First divergence of every paired writer/reader schema; divergences
/// owned by a nested helper pair are reported on the helper only.
[[nodiscard]] std::vector<Violation> run_serdes_asymmetry_pass(
    const WireModel& wire, const std::vector<SourceFile>& files);

/// Wire-sourced counts reaching allocation-sized uses unchecked.
[[nodiscard]] std::vector<Violation> run_unchecked_wire_count_pass(
    const WireModel& wire, const std::vector<SourceFile>& files);

/// Computed schemas vs the committed fingerprints at
/// options.schemas_path (no-op when the path is empty). Stale committed
/// entries whose pair no longer exists only warn on stderr, mirroring
/// the findings-baseline gate.
[[nodiscard]] std::vector<Violation> run_schema_drift_pass(
    const WireModel& wire, const std::vector<SourceFile>& files,
    const PassOptions& options);

/// The six line rules, file by file.
[[nodiscard]] std::vector<Violation> run_line_passes(
    const std::vector<SourceFile>& files, const PassOptions& options);

/// All sixteen rules over an analyzed corpus, sorted by
/// (file, line, rule, message) — byte-stable across runs.
[[nodiscard]] std::vector<Violation> run_all_passes(
    const std::vector<SourceFile>& files, const SymbolTable& symbols,
    const IncludeGraph& includes, const LockGraph& lock_graph,
    const CallGraph& call_graph, const Summaries& summaries,
    const WireModel& wire, const PassOptions& options);

}  // namespace fr_analysis
