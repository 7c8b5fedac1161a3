// fr_analyze — the repo's one static-analysis driver: token-level
// checks of the invariants the compiler cannot see (DESIGN.md §8, §11,
// §13, §16). Sixteen rules, all listed in analysis/passes.h:
//
//   * the global lock hierarchy (lock-order-cycle, plus the
//     call-chain-transitive variant fed by per-function summaries):
//     MutexLock nesting is extracted per translation unit, resolved
//     through the mutex symbol table + include graph, and merged into
//     one acquired-after graph; any cycle is a potential deadlock and
//     is reported with the full witness path;
//   * the sim-time discipline (sim-time): no real-time sources in
//     pipeline code outside common/sim_clock.* / common/timer.h;
//   * the bit-determinism contract (determinism-reduction and the
//     interprocedural determinism-taint): no captured floating-point
//     accumulation inside parallel_for lambdas, and no unordered-
//     container iteration feeding output/reduction sinks;
//   * blocking-under-lock: no wait/join/file-I/O reachable while a
//     scoped lock is held;
//   * guarded-by-coverage: every FR_GUARDED_BY field write sits on a
//     path that holds (or FR_REQUIRES) the guard;
//   * the wire-schema model (analysis/wire_schema.h): writer/reader
//     symmetry (serdes-asymmetry), unvalidated wire counts
//     (unchecked-wire-count), and fingerprints against the committed
//     tools/analysis/wire_schemas.json (schema-drift);
//   * six line rules over each file's scrubbed lines: mutex-needs-
//     guards, no-raw-thread, no-c-random, no-iostream-in-lib,
//     no-unbounded-retry, crash-point-required.
//
// Every rule honours a trailing `// fr_analyze: allow(rule-id)` on the
// reported line and fingerprints its findings line-insensitively.
// Lock order has a dynamic check too: ThreadSanitizer's
// lock-order-inversion detector in the tsan preset, proven by
// tests/concurrency/lock_order_control.cpp. Statically this tool covers
// all code paths; dynamically TSan covers the paths the tests execute.
//
// Usage:
//   fr_analyze [--json|--sarif] [--baseline <f> | --write-baseline <f>]
//              [--schemas <f>] <dir-or-file>...
//                                            analyze; with --baseline,
//                                            exit 1 only on findings
//                                            missing from the baseline;
//                                            with --schemas, diff wire
//                                            schemas against <f> too
//   fr_analyze --write-schemas <f> <roots>   regenerate the committed
//                                            wire-schema fingerprints
//   fr_analyze --stats <roots>               corpus/findings/wall-time
//                                            stats as JSON on stdout
//   fr_analyze --self-test <fixtures-dir>    EXPECT-driven fixture check
//   fr_analyze --coverage [--baseline <f> | --write-baseline <f>] <roots>
//                                            annotation-coverage gate
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/baseline.h"
#include "analysis/call_graph.h"
#include "analysis/include_graph.h"
#include "analysis/lock_graph.h"
#include "analysis/passes.h"
#include "analysis/summaries.h"
#include "analysis/symbols.h"
#include "analysis/tokenizer.h"
#include "analysis/violation.h"
#include "analysis/wire_schema.h"

namespace fs = std::filesystem;
using namespace fr_analysis;

namespace {

bool analyzable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

std::vector<fs::path> collect(const std::vector<std::string>& roots,
                              bool include_fixtures) {
  std::vector<fs::path> files;
  for (const auto& root : roots) {
    if (fs::is_directory(root)) {
      for (const auto& entry : fs::recursive_directory_iterator(root)) {
        const std::string p = entry.path().generic_string();
        if (!entry.is_regular_file() || !analyzable(entry.path())) continue;
        if (!include_fixtures && p.find("_fixtures") != std::string::npos) {
          continue;
        }
        if (p.find("/build") != std::string::npos) continue;
        files.push_back(entry.path());
      }
    } else if (fs::is_regular_file(root)) {
      files.push_back(root);
    } else {
      std::fprintf(stderr, "fr_analyze: no such path: %s\n", root.c_str());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

struct Corpus {
  std::vector<SourceFile> files;
  IncludeGraph includes;
  SymbolTable symbols;
  LockGraph locks;
  CallGraph graph;
  Summaries summaries;
  WireModel wire;
};

Corpus load_corpus(const std::vector<fs::path>& paths) {
  Corpus corpus;
  corpus.files.reserve(paths.size());
  for (const fs::path& path : paths) {
    corpus.files.push_back(tokenize_file(path.generic_string()));
  }
  corpus.includes = IncludeGraph::build(corpus.files);
  corpus.symbols = SymbolTable::build(corpus.files, corpus.includes);
  corpus.locks =
      LockGraph::build(corpus.files, corpus.symbols, corpus.includes);
  corpus.graph = CallGraph::build(corpus.files, corpus.includes);
  corpus.summaries = Summaries::build(corpus.files, corpus.graph,
                                      corpus.symbols, corpus.includes);
  corpus.wire = WireModel::build(corpus.files, corpus.graph, corpus.includes);
  return corpus;
}

enum class Format { kText, kJson, kSarif };

int run_analyze(const std::vector<std::string>& roots, Format format,
                const std::string& baseline_path, bool update_baseline,
                const std::string& schemas_path) {
  const Corpus corpus = load_corpus(collect(roots, /*include_fixtures=*/false));
  PassOptions options;
  options.schemas_path = schemas_path;
  const std::vector<Violation> violations =
      run_all_passes(corpus.files, corpus.symbols, corpus.includes,
                     corpus.locks, corpus.graph, corpus.summaries, corpus.wire,
                     options);

  if (update_baseline) {
    std::FILE* out = std::fopen(baseline_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "fr_analyze: cannot write baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    write_baseline(out, violations);
    std::fclose(out);
    std::fprintf(stderr, "fr_analyze: wrote %zu finding(s) to %s\n",
                 violations.size(), baseline_path.c_str());
    return 0;
  }

  std::vector<Violation> reported = violations;
  std::size_t tolerated = 0;
  std::size_t stale = 0;
  if (!baseline_path.empty()) {
    std::vector<BaselineEntry> baseline;
    if (!load_baseline(baseline_path, &baseline)) {
      std::fprintf(stderr, "fr_analyze: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    BaselineDiff diff = diff_baseline(violations, baseline);
    tolerated = violations.size() - diff.fresh.size();
    stale = diff.stale.size();
    for (const BaselineEntry& entry : diff.stale) {
      std::fprintf(stderr,
                   "fr_analyze: stale baseline entry (no longer found): "
                   "[%s] %s (%s) — prune it with --write-baseline\n",
                   entry.rule.c_str(), entry.fingerprint.c_str(),
                   entry.file.c_str());
    }
    reported = std::move(diff.fresh);
  }

  if (format == Format::kJson) {
    emit_json(stdout, reported);
  } else if (format == Format::kSarif) {
    emit_sarif(stdout, "fr_analyze", reported);
  } else {
    emit_text(stderr, reported);
  }
  std::fprintf(stderr,
               "fr_analyze: %zu file(s), %zu include edge(s), %zu mutex(es), "
               "%zu lock edge(s), %zu function(s), %zu wire pair(s), "
               "%zu violation(s) (%zu baselined, %zu stale)\n",
               corpus.files.size(), corpus.includes.edge_count(),
               corpus.symbols.mutexes().size(), corpus.locks.edges().size(),
               corpus.graph.functions().size(), corpus.wire.pairs().size(),
               reported.size(), tolerated, stale);
  return reported.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------
// --write-schemas: regenerate the committed wire-schema fingerprints.
// Run after a deliberate format change (with its version bump) so the
// schema-drift gate re-anchors; the diff is reviewable line-per-format.
// ---------------------------------------------------------------------

int run_write_schemas(const std::vector<std::string>& roots,
                      const std::string& out_path) {
  // A fixtures directory named explicitly is a corpus in its own right
  // (the self-test diffs fixture schemas too).
  bool include_fixtures = false;
  for (const std::string& root : roots) {
    if (root.find("_fixtures") != std::string::npos) include_fixtures = true;
  }
  const Corpus corpus = load_corpus(collect(roots, include_fixtures));
  const std::vector<SchemaEntry> entries = corpus.wire.entries();
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "fr_analyze: cannot write schemas %s\n",
                 out_path.c_str());
    return 2;
  }
  write_schemas(out, entries);
  std::fclose(out);
  std::fprintf(stderr, "fr_analyze: wrote %zu schema(s) to %s\n",
               entries.size(), out_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------
// --stats: corpus size, per-rule findings, and end-to-end wall time as
// one JSON object — committed as BENCH_analysis.json so analyzer cost
// gets a trajectory like the kernel benches.
// ---------------------------------------------------------------------

int run_stats(const std::vector<std::string>& roots,
              const std::string& schemas_path) {
  const auto start = std::chrono::steady_clock::now();
  const Corpus corpus = load_corpus(collect(roots, /*include_fixtures=*/false));
  PassOptions options;
  options.schemas_path = schemas_path;
  const std::vector<Violation> violations =
      run_all_passes(corpus.files, corpus.symbols, corpus.includes,
                     corpus.locks, corpus.graph, corpus.summaries, corpus.wire,
                     options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::size_t tokens = 0;
  for (const SourceFile& file : corpus.files) tokens += file.tokens.size();
  std::map<std::string, std::size_t> by_rule;
  for (const char* rule : kAnalyzeRuleIds) by_rule[rule] = 0;
  for (const Violation& v : violations) ++by_rule[v.rule];

  std::printf("{\n");
  std::printf("  \"files\": %zu,\n", corpus.files.size());
  std::printf("  \"tokens\": %zu,\n", tokens);
  std::printf("  \"functions\": %zu,\n", corpus.graph.functions().size());
  std::printf("  \"wire_functions\": %zu,\n", corpus.wire.functions().size());
  std::printf("  \"wire_pairs\": %zu,\n", corpus.wire.pairs().size());
  std::printf("  \"wall_seconds\": %.3f,\n", wall);
  std::printf("  \"findings\": {");
  bool first = true;
  for (const auto& [rule, count] : by_rule) {
    std::printf("%s\n    \"%s\": %zu", first ? "" : ",", rule.c_str(), count);
    first = false;
  }
  std::printf("\n  }\n}\n");
  return 0;
}

// ---------------------------------------------------------------------
// --coverage: annotated-vs-bare wrapper mutexes per directory, plus the
// baseline regression gate (a previously annotated mutex must never
// lose its last FR_GUARDED_BY, and every entry must name a mutex that
// still exists).
// ---------------------------------------------------------------------

std::string dir_of(const std::string& path) {
  const std::size_t cut = path.rfind('/');
  return cut == std::string::npos ? "." : path.substr(0, cut);
}

int run_coverage(const std::vector<std::string>& roots,
                 const std::string& baseline_path, bool write_baseline) {
  const Corpus corpus = load_corpus(collect(roots, /*include_fixtures=*/false));

  std::map<std::string, std::pair<std::size_t, std::size_t>> by_dir;
  std::vector<const MutexDecl*> annotated;
  for (const MutexDecl& decl : corpus.symbols.mutexes()) {
    if (!decl.wrapper) continue;  // std::mutex is invisible to the analysis
    auto& [ann, bare] = by_dir[dir_of(decl.file)];
    if (decl.guarded_refs > 0) {
      ++ann;
      annotated.push_back(&decl);
    } else {
      ++bare;
    }
  }

  std::fprintf(stderr, "%-40s %9s %5s\n", "directory", "annotated", "bare");
  for (const auto& [dir, counts] : by_dir) {
    std::fprintf(stderr, "%-40s %9zu %5zu\n", dir.c_str(), counts.first,
                 counts.second);
  }

  if (write_baseline) {
    std::ofstream out(baseline_path);
    out << "# fr_analyze annotation-coverage baseline — every wrapper mutex\n"
           "# below carries at least one FR_GUARDED_BY/FR_PT_GUARDED_BY.\n"
           "# Regenerate: fr_analyze --coverage --write-baseline <this-file> "
           "src\n";
    std::vector<std::string> ids;
    for (const MutexDecl* decl : annotated) ids.push_back(decl->id);
    std::sort(ids.begin(), ids.end());
    for (const std::string& id : ids) out << "annotated " << id << "\n";
    std::fprintf(stderr, "fr_analyze: wrote %zu baseline entr(ies) to %s\n",
                 ids.size(), baseline_path.c_str());
    return 0;
  }

  if (baseline_path.empty()) return 0;
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "fr_analyze: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 2;
  }
  std::size_t regressions = 0;
  std::string word;
  while (in >> word) {
    if (word == "#") {
      std::string rest;
      std::getline(in, rest);
      continue;
    }
    if (word != "annotated") {
      std::getline(in, word);
      continue;
    }
    std::string id;
    if (!(in >> id)) break;
    bool found = false;
    for (const MutexDecl& decl : corpus.symbols.mutexes()) {
      if (decl.id != id || !decl.wrapper) continue;
      found = true;
      if (decl.guarded_refs == 0) {
        ++regressions;
        std::fprintf(stderr,
                     "%s:%zu: [coverage] mutex '%s' lost its last "
                     "FR_GUARDED_BY — the thread-safety analysis no longer "
                     "checks anything against it\n",
                     decl.file.c_str(), decl.line, id.c_str());
      }
    }
    if (!found) {
      ++regressions;
      std::fprintf(stderr,
                   "%s: [coverage] stale entry: mutex '%s' no longer exists "
                   "— remove it, or rename it with the mutex\n",
                   baseline_path.c_str(), id.c_str());
    }
  }
  std::fprintf(stderr, "fr_analyze coverage: %zu regression(s)\n", regressions);
  return regressions == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// --self-test: fixtures state the rules they must trigger via
// `// EXPECT: rule-id` headers (EXPECT: clean for none). The whole
// fixtures dir is analyzed as one corpus (the passes are cross-file),
// every EXPECT id must be a known rule, and every known rule must be
// expected by exactly one fixture — so adding a pass without a fixture,
// or a fixture for a renamed rule, fails loudly.
// ---------------------------------------------------------------------

int run_self_test(const std::string& fixtures_dir) {
  const std::vector<fs::path> paths =
      collect({fixtures_dir}, /*include_fixtures=*/true);
  if (paths.empty()) {
    std::fprintf(stderr, "fr_analyze self-test: no fixtures found\n");
    return 1;
  }
  const Corpus corpus = load_corpus(paths);
  PassOptions options;
  options.treat_all_as_src = true;
  // Fixture schemas, when committed, make the drift gate self-testable:
  // the schema-drift fixture's entry is deliberately mutated in there.
  const std::string fixture_schemas = fixtures_dir + "/wire_schemas.json";
  if (fs::is_regular_file(fixture_schemas)) {
    options.schemas_path = fixture_schemas;
  }
  const std::vector<Violation> violations =
      run_all_passes(corpus.files, corpus.symbols, corpus.includes,
                     corpus.locks, corpus.graph, corpus.summaries, corpus.wire,
                     options);

  const std::set<std::string> known(kAnalyzeRuleIds.begin(),
                                    kAnalyzeRuleIds.end());
  int failures = 0;
  std::map<std::string, std::size_t> expect_counts;

  std::map<std::string, std::set<std::string>> actual;
  for (const Violation& v : violations) actual[v.file].insert(v.rule);

  for (const SourceFile& file : corpus.files) {
    std::set<std::string> expected;
    for (const std::string& raw : file.raw) {
      const std::string tag = "// EXPECT: ";
      const std::size_t pos = raw.find(tag);
      if (pos == std::string::npos) continue;
      const std::string rule = raw.substr(pos + tag.size());
      if (rule == "clean") continue;
      if (known.count(rule) == 0) {
        ++failures;
        std::fprintf(stderr, "fr_analyze self-test FAIL %s: unknown EXPECT id "
                             "'%s'\n",
                     file.path.c_str(), rule.c_str());
        continue;
      }
      expected.insert(rule);
      ++expect_counts[rule];
    }
    const std::set<std::string>& got = actual[file.path];
    if (expected != got) {
      ++failures;
      std::string want_s, got_s;
      for (const auto& r : expected) want_s += r + " ";
      for (const auto& r : got) got_s += r + " ";
      std::fprintf(stderr,
                   "fr_analyze self-test FAIL %s\n  expected: %s\n  got:      "
                   "%s\n",
                   file.path.c_str(), want_s.empty() ? "(clean)" : want_s.c_str(),
                   got_s.empty() ? "(clean)" : got_s.c_str());
    }
  }

  for (const char* rule : kAnalyzeRuleIds) {
    const std::size_t count = expect_counts[rule];
    if (count != 1) {
      ++failures;
      std::fprintf(stderr,
                   "fr_analyze self-test FAIL: rule '%s' expected by %zu "
                   "fixture(s), want exactly 1\n",
                   rule, count);
    }
  }

  std::fprintf(stderr, "fr_analyze self-test: %zu fixture(s), %d failure(s)\n",
               corpus.files.size(), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  Format format = Format::kText;
  bool coverage = false;
  bool stats = false;
  bool write_baseline = false;
  std::string baseline;
  std::string schemas;
  std::string write_schemas_path;
  std::string self_test_dir;
  std::vector<std::string> roots;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--json") {
      format = Format::kJson;
    } else if (arg == "--sarif") {
      format = Format::kSarif;
    } else if (arg == "--coverage") {
      coverage = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--schemas" || arg == "--write-schemas") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "fr_analyze: %s takes a file argument\n",
                     arg.c_str());
        return 2;
      }
      if (arg == "--schemas") {
        schemas = args[++i];
      } else {
        write_schemas_path = args[++i];
      }
    } else if (arg == "--baseline" || arg == "--write-baseline") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "fr_analyze: %s takes a file argument\n",
                     arg.c_str());
        return 2;
      }
      baseline = args[++i];
      write_baseline = arg == "--write-baseline";
    } else if (arg == "--self-test") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "fr_analyze: --self-test takes a fixtures dir\n");
        return 2;
      }
      self_test_dir = args[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "fr_analyze: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      roots.push_back(arg);
    }
  }

  if (!self_test_dir.empty()) return run_self_test(self_test_dir);
  if (roots.empty()) {
    std::fprintf(
        stderr,
        "usage: fr_analyze [--json|--sarif] [--baseline <file> | "
        "--write-baseline <file>] [--schemas <file>] <dir-or-file>...\n"
        "       fr_analyze --write-schemas <file> <roots>\n"
        "       fr_analyze --stats <roots>\n"
        "       fr_analyze --self-test <fixtures-dir>\n"
        "       fr_analyze --coverage [--baseline <file> | --write-baseline "
        "<file>] <roots>\n");
    return 2;
  }
  if (!write_schemas_path.empty()) {
    return run_write_schemas(roots, write_schemas_path);
  }
  if (stats) return run_stats(roots, schemas);
  if (coverage) return run_coverage(roots, baseline, write_baseline);
  return run_analyze(roots, format, baseline, write_baseline, schemas);
}
