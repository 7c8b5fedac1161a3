#include "analysis/passes.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <map>
#include <set>

namespace fr_analysis {

namespace {

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool path_contains_dir(const std::string& path, const std::string& dir) {
  return path.find("/" + dir + "/") != std::string::npos ||
         path.rfind(dir + "/", 0) == 0;
}

bool path_ends_with(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Trailing `// fr_analyze: allow(rule)` marker on the raw line.
bool line_allows(const SourceFile& file, std::size_t line,
                 const std::string& rule) {
  if (line == 0 || line > file.raw.size()) return false;
  const std::string marker = "fr_analyze: allow(" + rule + ")";
  return file.raw[line - 1].find(marker) != std::string::npos;
}

const SourceFile* find_file(const std::vector<SourceFile>& files,
                            const std::string& path) {
  for (const SourceFile& file : files) {
    if (file.path == path) return &file;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// sim-time
// ---------------------------------------------------------------------

const std::set<std::string>& real_time_idents() {
  static const std::set<std::string> kIdents = {
      "sleep_for",     "sleep_until",  "system_clock",
      "steady_clock",  "high_resolution_clock",
      "nanosleep",     "usleep",       "gettimeofday",
      "clock_gettime",
  };
  return kIdents;
}

}  // namespace

std::vector<Violation> run_sim_time_pass(const std::vector<SourceFile>& files,
                                         const PassOptions& options) {
  std::vector<Violation> out;
  for (const SourceFile& file : files) {
    if (!options.treat_all_as_src && !path_contains_dir(file.path, "src")) {
      continue;
    }
    // The two blessed homes of real time: the virtual-clock models
    // themselves, and the WallTimer stopwatch the bench harness reports
    // measured CPU seconds with.
    if (path_ends_with(file.path, "common/sim_clock.h") ||
        path_ends_with(file.path, "common/sim_clock.cpp") ||
        path_ends_with(file.path, "common/timer.h")) {
      continue;
    }
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t k = 0; k < toks.size(); ++k) {
      if (toks[k].kind != TokKind::kIdent) continue;
      bool banned = real_time_idents().count(toks[k].text) > 0;
      if (!banned && toks[k].text == "time" && k + 1 < toks.size() &&
          is_punct(toks[k + 1], "(")) {
        // Raw time(...): a call, not a member (`x.time(...)`) and, when
        // qualified, only the std:: spelling.
        const bool member = k >= 1 && (is_punct(toks[k - 1], ".") ||
                                       is_punct(toks[k - 1], "->"));
        bool qualified_ok = true;
        if (k >= 2 && is_punct(toks[k - 1], "::")) {
          qualified_ok = toks[k - 2].kind == TokKind::kIdent &&
                         toks[k - 2].text == "std";
        }
        banned = !member && qualified_ok;
      }
      if (banned && !line_allows(file, toks[k].line, "sim-time")) {
        out.push_back(
            {file.path, toks[k].line, "sim-time",
             "real-time source '" + toks[k].text +
                 "' in pipeline code — charge I/O to SimClock "
                 "(common/sim_clock.h) so runs replay identically; "
                 "wall-clock measurement belongs in common/timer.h",
             "sim-time|" + file.path + "|" + toks[k].text});
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// determinism-reduction
// ---------------------------------------------------------------------

namespace {

const std::set<std::string>& type_idents() {
  static const std::set<std::string> kTypes = {
      "double", "float",    "auto",     "int",      "long",    "unsigned",
      "short",  "size_t",   "uint8_t",  "uint16_t", "uint32_t", "uint64_t",
      "int8_t", "int16_t",  "int32_t",  "int64_t",  "Gid",     "ptrdiff_t",
  };
  return kTypes;
}

bool is_type_ident(const Token& t) {
  return t.kind == TokKind::kIdent && type_idents().count(t.text) > 0;
}

/// True when tokens [begin, at) contain a local declaration of `name`:
/// a `<type> name` pair (covers lambda parameters and body locals).
bool declared_in_region(const std::vector<Token>& toks, std::size_t begin,
                        std::size_t at, const std::string& name) {
  for (std::size_t j = begin + 1; j < at; ++j) {
    if (toks[j].kind != TokKind::kIdent || toks[j].text != name) continue;
    if (is_type_ident(toks[j - 1])) return true;
    if ((is_punct(toks[j - 1], "&") || is_punct(toks[j - 1], "*")) && j >= 2 &&
        is_type_ident(toks[j - 2])) {
      return true;
    }
  }
  return false;
}

/// True when the file declares `double name` / `float name` anywhere —
/// the only case the determinism rule fires on (integer counters are a
/// race question for TSan, not a float-ordering question).
bool floating_in_file(const std::vector<Token>& toks, const std::string& name) {
  for (std::size_t j = 1; j < toks.size(); ++j) {
    if (toks[j].kind == TokKind::kIdent && toks[j].text == name &&
        toks[j - 1].kind == TokKind::kIdent &&
        (toks[j - 1].text == "double" || toks[j - 1].text == "float")) {
      return true;
    }
  }
  return false;
}

/// Finds the token index just past the matching closer for the opener
/// at `open` (which must be "(", "[", or "{"). Returns toks.size() when
/// unbalanced.
std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t open,
                          const char* open_text, const char* close_text) {
  int depth = 0;
  for (std::size_t m = open; m < toks.size(); ++m) {
    if (is_punct(toks[m], open_text)) ++depth;
    if (is_punct(toks[m], close_text)) {
      --depth;
      if (depth == 0) return m + 1;
    }
  }
  return toks.size();
}

}  // namespace

std::vector<Violation> run_determinism_pass(
    const std::vector<SourceFile>& files) {
  std::vector<Violation> out;
  for (const SourceFile& file : files) {
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
      if (toks[k].kind != TokKind::kIdent ||
          (toks[k].text != "parallel_for" &&
           toks[k].text != "parallel_for_ranges") ||
          !is_punct(toks[k + 1], "(")) {
        continue;
      }
      const std::size_t call_end = skip_balanced(toks, k + 1, "(", ")");
      // Inline lambda arguments: a '[' in argument position (after '('
      // or ','). Lambdas bound to a named variable earlier are already
      // covered when their own call site is scanned — and the blessed
      // helpers keep their accumulators local anyway.
      for (std::size_t m = k + 2; m < call_end; ++m) {
        if (!is_punct(toks[m], "[") ||
            !(is_punct(toks[m - 1], "(") || is_punct(toks[m - 1], ","))) {
          continue;
        }
        const std::size_t intro_end = skip_balanced(toks, m, "[", "]");
        // Optional parameter list, then the body braces.
        std::size_t body_begin = intro_end;
        if (body_begin < toks.size() && is_punct(toks[body_begin], "(")) {
          body_begin = skip_balanced(toks, body_begin, "(", ")");
        }
        if (body_begin >= toks.size() || !is_punct(toks[body_begin], "{")) {
          continue;
        }
        const std::size_t body_end = skip_balanced(toks, body_begin, "{", "}");

        for (std::size_t p = m; p < body_end && p < toks.size(); ++p) {
          // std::accumulate inside a parallel lambda is always wrong.
          if (toks[p].kind == TokKind::kIdent &&
              toks[p].text == "accumulate" &&
              !line_allows(file, toks[p].line, "determinism-reduction")) {
            out.push_back({file.path, toks[p].line, "determinism-reduction",
                           "std::accumulate inside a parallel_for lambda — "
                           "use the fixed-block reduction helper "
                           "(core/faultyrank.cpp reduce_block_sum) to "
                           "keep sums bit-identical across pool sizes",
                           "determinism-reduction|" + file.path +
                               "|accumulate"});
            continue;
          }
          if (p + 1 >= toks.size() ||
              !(is_punct(toks[p + 1], "+=") || is_punct(toks[p + 1], "-="))) {
            continue;
          }
          if (toks[p].kind != TokKind::kIdent) continue;  // arr[i] += ...
          if (p >= 1 &&
              (is_punct(toks[p - 1], ".") || is_punct(toks[p - 1], "->"))) {
            continue;  // member accumulation: object identity unknown
          }
          const std::string& name = toks[p].text;
          if (declared_in_region(toks, m, p, name)) continue;  // local acc
          if (!floating_in_file(toks, name)) continue;
          if (line_allows(file, toks[p].line, "determinism-reduction")) {
            continue;
          }
          out.push_back(
              {file.path, toks[p].line, "determinism-reduction",
               "floating-point accumulation into captured '" + name +
                   "' inside a parallel_for lambda — scheduling decides "
                   "the addition order; route the reduction through the "
                   "fixed-block helpers or write disjoint indexed slots",
               "determinism-reduction|" + file.path + "|" + name});
        }
        m = body_end > m ? body_end - 1 : m;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// lock-order-cycle (+ the call-chain-transitive variant)
// ---------------------------------------------------------------------

namespace {

/// Deterministic attribution anchor: the lexicographically smallest
/// (file, from_line) among the witness edges.
const LockEdge* cycle_primary(const LockCycle& cycle) {
  const LockEdge* primary = &cycle.edges.front();
  for (const LockEdge& edge : cycle.edges) {
    if (edge.file < primary->file ||
        (edge.file == primary->file && edge.from_line < primary->from_line)) {
      primary = &edge;
    }
  }
  return primary;
}

std::string cycle_witness(const LockCycle& cycle) {
  std::string witness;
  for (const LockEdge& edge : cycle.edges) {
    if (!witness.empty()) witness += "; ";
    witness += edge.from + " -> " + edge.to + " [" + edge.file + ":" +
               std::to_string(edge.from_line) + " holds the former, :" +
               std::to_string(edge.to_line) +
               (edge.via.empty() ? " acquires the latter]"
                                 : " calls " + edge.via + "]");
  }
  return witness;
}

/// Line-insensitive cycle identity: the ordered node list (find_cycles
/// already roots every cycle at its smallest node).
std::string cycle_fingerprint(const std::string& rule,
                              const LockCycle& cycle) {
  std::string nodes;
  for (const LockEdge& edge : cycle.edges) nodes += edge.from + ";";
  return rule + "|" + nodes;
}

}  // namespace

std::vector<Violation> run_lock_order_pass(const LockGraph& graph,
                                           const std::vector<SourceFile>& files) {
  std::vector<Violation> out;
  for (const LockCycle& cycle : graph.find_cycles()) {
    const LockEdge* primary = cycle_primary(cycle);
    const SourceFile* file = find_file(files, primary->file);
    if (file != nullptr &&
        line_allows(*file, primary->from_line, "lock-order-cycle")) {
      continue;
    }
    out.push_back({primary->file, primary->from_line, "lock-order-cycle",
                   "lock acquisition cycle (potential deadlock): " +
                       cycle_witness(cycle),
                   cycle_fingerprint("lock-order-cycle", cycle)});
  }
  return out;
}

std::vector<Violation> run_lock_order_transitive_pass(
    const LockGraph& direct, const Summaries& summaries,
    const std::vector<SourceFile>& files) {
  // Direct edges first: the cycle finder dedups by node sequence, so a
  // cycle closable without any induced edge is discovered through its
  // direct edges and filtered below — the direct pass owns it.
  std::vector<LockEdge> combined = direct.edges();
  combined.insert(combined.end(), summaries.induced_edges().begin(),
                  summaries.induced_edges().end());
  const LockGraph graph = LockGraph::from_edges(std::move(combined));

  std::vector<Violation> out;
  for (const LockCycle& cycle : graph.find_cycles()) {
    bool induced = false;
    for (const LockEdge& edge : cycle.edges) {
      if (!edge.via.empty()) induced = true;
    }
    if (!induced) continue;
    const LockEdge* primary = cycle_primary(cycle);
    const SourceFile* file = find_file(files, primary->file);
    if (file != nullptr && line_allows(*file, primary->from_line,
                                       "lock-order-cycle-transitive")) {
      continue;
    }
    out.push_back(
        {primary->file, primary->from_line, "lock-order-cycle-transitive",
         "lock acquisition cycle through call chains (potential "
         "deadlock): " + cycle_witness(cycle),
         cycle_fingerprint("lock-order-cycle-transitive", cycle)});
  }
  return out;
}

// ---------------------------------------------------------------------
// blocking-under-lock
// ---------------------------------------------------------------------

std::vector<Violation> run_blocking_under_lock_pass(
    const Summaries& summaries, const std::vector<SourceFile>& files) {
  std::vector<Violation> out;
  for (const BlockingSite& site : summaries.blocking_sites()) {
    const SourceFile* file = find_file(files, site.file);
    if (file != nullptr &&
        line_allows(*file, site.line, "blocking-under-lock")) {
      continue;
    }
    std::string message = "'" + site.what + "' may block while " +
                          site.held_id + " is held (acquired at " + site.file +
                          ":" + std::to_string(site.held_line) + ")";
    if (!site.path.empty()) {
      message += " — reached via ";
      for (std::size_t i = 0; i < site.path.size(); ++i) {
        if (i > 0) message += " -> ";
        message += site.path[i];
      }
      message += ", blocking at " + site.origin_file + ":" +
                 std::to_string(site.origin_line);
    }
    message +=
        "; a stalled write or parked wait here holds every contender of "
        "the lock hostage — move the slow work outside the critical "
        "section";
    out.push_back({site.file, site.line, "blocking-under-lock",
                   std::move(message),
                   "blocking-under-lock|" + site.file + "|" +
                       site.function_id + "|" + site.held_id + "|" +
                       site.what + "|" + site.callee_id});
  }
  return out;
}

// ---------------------------------------------------------------------
// determinism-taint
// ---------------------------------------------------------------------

namespace {

const std::set<std::string>& taint_emit_names() {
  static const std::set<std::string> kNames = {
      "put",   "put_string", "put_bytes", "fwrite",
      "fputs", "fputc",      "fprintf",   "vfprintf", "printf",
  };
  return kNames;
}

}  // namespace

std::vector<Violation> run_determinism_taint_pass(
    const std::vector<SourceFile>& files, const CallGraph& graph,
    const Summaries& summaries, const IncludeGraph& includes) {
  std::vector<Violation> out;
  for (const SourceFile& file : files) {
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
      if (toks[k].kind != TokKind::kIdent || toks[k].text != "for" ||
          !is_punct(toks[k + 1], "(")) {
        continue;
      }
      const std::size_t head_end = skip_balanced(toks, k + 1, "(", ")");
      // Range-for: a ':' at parenthesis depth 1.
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t m = k + 1; m < head_end; ++m) {
        if (is_punct(toks[m], "(")) ++depth;
        if (is_punct(toks[m], ")")) --depth;
        if (depth == 1 && is_punct(toks[m], ":")) {
          colon = m;
          break;
        }
      }
      if (colon == 0 || head_end == 0 || head_end > toks.size()) continue;

      // The container is the trailing identifier of the range
      // expression; a call result (expression ending in ')') has no
      // trackable identity.
      if (head_end < 2 || is_punct(toks[head_end - 2], ")")) continue;
      std::string container;
      for (std::size_t m = colon + 1; m + 1 < head_end; ++m) {
        if (toks[m].kind == TokKind::kIdent) container = toks[m].text;
      }
      if (container.empty()) continue;

      const FunctionDef* def = graph.enclosing(file.path, k);
      const std::string container_id = summaries.resolve_unordered(
          container, file.path, def != nullptr ? def->class_path : "",
          includes);
      if (container_id.empty()) continue;

      // Body: a brace block or a single statement up to ';'.
      std::size_t body_begin = head_end;
      std::size_t body_end;
      if (body_begin < toks.size() && is_punct(toks[body_begin], "{")) {
        body_end = skip_balanced(toks, body_begin, "{", "}");
      } else {
        body_end = body_begin;
        while (body_end < toks.size() && !is_punct(toks[body_end], ";")) {
          ++body_end;
        }
      }

      // First order-sensitive sink inside the body wins; one finding
      // per loop.
      std::string sink;
      for (std::size_t p = body_begin; p < body_end && sink.empty(); ++p) {
        if (toks[p].kind != TokKind::kIdent) continue;
        const bool call = p + 1 < toks.size() && is_punct(toks[p + 1], "(");
        if (call && taint_emit_names().count(toks[p].text) > 0) {
          sink = toks[p].text;
          break;
        }
        if (call && (toks[p].text == "accumulate" ||
                     toks[p].text == "parallel_for" ||
                     toks[p].text == "parallel_for_ranges")) {
          sink = toks[p].text;
          break;
        }
        if (call && def != nullptr) {
          for (const CallSite& site : def->calls) {
            if (site.token_index != p || site.callee_id.empty()) continue;
            if (!summaries.of(site.callee_id).emits.empty()) {
              sink = site.name;
            }
            break;
          }
          if (!sink.empty()) break;
        }
        if (p + 1 < toks.size() &&
            (is_punct(toks[p + 1], "+=") || is_punct(toks[p + 1], "-=")) &&
            floating_in_file(toks, toks[p].text)) {
          sink = "float:" + toks[p].text;
          break;
        }
      }
      if (sink.empty()) continue;
      if (line_allows(file, toks[k].line, "determinism-taint")) continue;
      out.push_back(
          {file.path, toks[k].line, "determinism-taint",
           "iteration over unordered container '" + container_id +
               "' feeds order-sensitive sink '" + sink +
               "' — hash order varies by seed/address, so emitted bytes "
               "and float sums change run to run; sort the keys (or copy "
               "into an ordered container) before this loop",
           "determinism-taint|" + file.path + "|" +
               (def != nullptr ? def->id : std::string()) + "|" +
               container_id + "|" + sink});
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// guarded-by-coverage
// ---------------------------------------------------------------------

std::vector<Violation> run_guarded_by_pass(
    const Summaries& summaries, const std::vector<SourceFile>& files) {
  std::vector<Violation> out;
  for (const UnguardedWrite& write : summaries.unguarded_writes()) {
    const SourceFile* file = find_file(files, write.file);
    if (file != nullptr &&
        line_allows(*file, write.line, "guarded-by-coverage")) {
      continue;
    }
    std::string message = "write to '" + write.field_id +
                          "' (FR_GUARDED_BY " + write.guard_id +
                          ") with no path from entry holding the guard";
    if (write.path.empty()) {
      message += " — the writing function neither locks it nor declares "
                 "FR_REQUIRES";
    } else {
      message += " — reachable from " + write.root_id + " via ";
      for (std::size_t i = 0; i < write.path.size(); ++i) {
        if (i > 0) message += " -> ";
        message += write.path[i];
      }
    }
    out.push_back({write.file, write.line, "guarded-by-coverage",
                   std::move(message),
                   "guarded-by-coverage|" + write.field_id + "|" +
                       write.guard_id + "|" + write.file});
  }
  return out;
}

// ---------------------------------------------------------------------
// serdes-asymmetry / unchecked-wire-count / schema-drift
// ---------------------------------------------------------------------

std::vector<Violation> run_serdes_asymmetry_pass(
    const WireModel& wire, const std::vector<SourceFile>& files) {
  std::vector<Violation> out;
  for (const WirePair& pair : wire.pairs()) {
    const WireMismatch m = wire.compare_pair(pair);
    if (!m.mismatch || m.suppressed) continue;
    const WireFn& w = wire.functions()[pair.writer];
    const WireFn& r = wire.functions()[pair.reader];
    const SourceFile* file = find_file(files, m.writer_file);
    if (file != nullptr &&
        line_allows(*file, m.writer_line, "serdes-asymmetry")) {
      continue;
    }
    out.push_back({m.writer_file, m.writer_line, "serdes-asymmetry",
                   "writer/reader schemas diverge: " + m.detail +
                       "; every byte the writer emits must be consumed at "
                       "the same offset and width by the reader",
                   "serdes-asymmetry|" + w.id + "|" + r.id});
  }
  return out;
}

std::vector<Violation> run_unchecked_wire_count_pass(
    const WireModel& wire, const std::vector<SourceFile>& files) {
  std::vector<Violation> out;
  for (const WireCountUse& use : wire.unchecked_counts()) {
    const SourceFile* file = find_file(files, use.file);
    if (file != nullptr &&
        line_allows(*file, use.line, "unchecked-wire-count")) {
      continue;
    }
    out.push_back(
        {use.file, use.line, "unchecked-wire-count",
         "count '" + use.var + "' read from the wire (" + use.source +
             " at line " + std::to_string(use.def_line) + ") reaches " +
             use.use +
             " unchecked — a hostile file can demand an arbitrary "
             "allocation; bound it with ByteReader::bounded_count or an "
             "explicit comparison against the remaining input first",
         "unchecked-wire-count|" + use.fn_id + "|" + use.var + "|" +
             use.use});
  }
  return out;
}

std::vector<Violation> run_schema_drift_pass(const WireModel& wire,
                                             const std::vector<SourceFile>& files,
                                             const PassOptions& options) {
  std::vector<Violation> out;
  if (options.schemas_path.empty()) return out;
  std::vector<SchemaEntry> committed;
  if (!load_schemas(options.schemas_path, &committed)) {
    out.push_back({options.schemas_path, 0, "schema-drift",
                   "cannot read committed wire schemas at '" +
                       options.schemas_path +
                       "' — regenerate with fr_analyze --write-schemas",
                   "schema-drift|" + options.schemas_path + "|unreadable"});
    return out;
  }
  std::map<std::string, const SchemaEntry*> by_format;
  for (const SchemaEntry& entry : committed) by_format[entry.format] = &entry;

  const std::vector<SchemaEntry> computed = wire.entries();
  std::set<std::string> seen;
  for (const SchemaEntry& entry : computed) {
    seen.insert(entry.format);
    const SourceFile* file = find_file(files, entry.file);
    const WireFn* writer = nullptr;
    for (const WireFn& fn : wire.functions()) {
      if (fn.id == entry.writer_id) writer = &fn;
    }
    const std::size_t line = writer != nullptr ? writer->line : 0;
    if (file != nullptr && line_allows(*file, line, "schema-drift")) continue;
    const auto it = by_format.find(entry.format);
    if (it == by_format.end()) {
      out.push_back({entry.file, line, "schema-drift",
                     "new wire format '" + entry.format +
                         "' has no committed fingerprint — review the "
                         "schema and regenerate " + options.schemas_path +
                         " (fr_analyze --write-schemas)",
                     "schema-drift|" + entry.format + "|new"});
      continue;
    }
    const SchemaEntry& old = *it->second;
    const bool schema_changed = entry.writer_schema != old.writer_schema ||
                                entry.reader_schema != old.reader_schema;
    const bool version_changed = entry.version != old.version;
    if (schema_changed && !version_changed) {
      // A name declared with a second width turns its put/get fields
      // into "?" without any byte on the wire changing: still a
      // finding, but one to fix by renaming, not by a version bump.
      const std::vector<std::string> labels =
          wire.wildcard_labels(entry, old);
      std::string collisions;
      for (const std::string& label : labels) {
        const auto it = wire.ambiguous_names().find(label);
        if (it == wire.ambiguous_names().end()) {
          collisions.clear();
          break;
        }
        if (!collisions.empty()) collisions += "; ";
        collisions += "'" + label + "' is declared";
        for (std::size_t i = 0; i < it->second.size(); ++i) {
          const ScalarDecl& decl = it->second[i];
          collisions += std::string(i == 0 ? " as " : " and as ") +
                        decl.type + " at " + decl.file + ":" +
                        std::to_string(decl.line);
        }
      }
      if (!collisions.empty()) {
        out.push_back(
            {entry.file, line, "schema-drift",
             "wire schema of '" + entry.format +
                 "' differs from its committed fingerprint only where a "
                 "width now computes as '?' (committed \"" +
                 old.writer_schema + "\" -> computed \"" +
                 entry.writer_schema + "\"): " + collisions +
                 ", so the analyzer cannot tell which declaration the "
                 "put/get names; rename one of them instead of bumping "
                 "the version",
             "schema-drift|" + entry.format + "|ambiguous"});
        continue;
      }
      const std::string where =
          entry.version.empty()
              ? "declare and bump a format-version constant in " + entry.file
              : "bump the version constant in " + entry.file +
                    " (currently " + entry.version + ")";
      out.push_back(
          {entry.file, line, "schema-drift",
           "wire schema of '" + entry.format +
               "' changed without a version bump (committed \"" +
               old.writer_schema + "\" -> computed \"" + entry.writer_schema +
               "\") — old files would be misparsed silently; " + where +
               ", then regenerate " + options.schemas_path,
           "schema-drift|" + entry.format + "|unbumped"});
      continue;
    }
    if (schema_changed || version_changed) {
      out.push_back({entry.file, line, "schema-drift",
                     "wire schema fingerprint of '" + entry.format +
                         "' is stale (version bumped) — regenerate " +
                         options.schemas_path +
                         " with fr_analyze --write-schemas",
                     "schema-drift|" + entry.format + "|regenerate"});
    }
  }
  // A committed fingerprint whose writer/reader pair is gone (a deleted
  // or renamed format) fails too, so the committed file only ever
  // describes formats the tree still has.
  for (const SchemaEntry& entry : committed) {
    if (seen.count(entry.format) != 0) continue;
    out.push_back({entry.file, 0, "schema-drift",
                   "committed wire schema of '" + entry.format +
                       "' no longer matches any writer/reader pair — "
                       "regenerate " + options.schemas_path +
                       " with fr_analyze --write-schemas",
                   "schema-drift|" + entry.format + "|stale"});
  }
  return out;
}

// ---------------------------------------------------------------------
// Line rules: mutex-needs-guards, no-raw-thread, no-c-random,
// no-iostream-in-lib, no-unbounded-retry, crash-point-required. Each
// reads one file's scrubbed-line view, so comments, string literals and
// raw strings never trip them.
// ---------------------------------------------------------------------

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t skip_space(const std::string& line, std::size_t i) {
  while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  return i;
}

std::string without_space(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) out += c;
  }
  return out;
}

std::string to_lower(std::string text) {
  for (char& c : text) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return text;
}

bool mentions_any(const std::string& lowered,
                  std::initializer_list<const char*> words) {
  for (const char* word : words) {
    if (lowered.find(word) != std::string::npos) return true;
  }
  return false;
}

/// The name a scrubbed line declares a mutex under, or "" when it
/// declares none: `[mutable|static] <mutex-type> name;`, optionally
/// brace-initialized (`name{};`). Parameter lists and constructor calls
/// put a '(' before the ';' and do not count.
std::string mutex_decl_name(const std::string& line) {
  static const std::array<std::string, 6> kMutexTypes = {
      "std::mutex", "std::shared_mutex", "faultyrank::Mutex",
      "faultyrank::SharedMutex", "Mutex", "SharedMutex"};
  for (const std::string& type : kMutexTypes) {
    for (std::size_t pos = line.find(type); pos != std::string::npos;
         pos = line.find(type, pos + 1)) {
      const std::size_t end = pos + type.size();
      const bool left_ok =
          pos == 0 || (!is_ident_char(line[pos - 1]) && line[pos - 1] != ':');
      if (!left_ok || end >= line.size() || is_ident_char(line[end]) ||
          line[end] == ':') {
        continue;
      }
      std::size_t i = skip_space(line, end);
      const std::size_t name_begin = i;
      while (i < line.size() && is_ident_char(line[i])) ++i;
      const std::string name = line.substr(name_begin, i - name_begin);
      i = skip_space(line, i);
      if (!name.empty() && i < line.size() && line[i] == '{') {
        const std::size_t close = line.find('}', i);
        i = close == std::string::npos ? line.size()
                                       : skip_space(line, close + 1);
      }
      if (!name.empty() && i < line.size() && line[i] == ';') return name;
    }
  }
  return "";
}

/// True when an FR_* annotation anywhere in the file names `mutex` as
/// the trailing identifier of its argument (FR_GUARDED_BY(pool_.mutex_)
/// names mutex_).
bool has_annotation_for(const SourceFile& file, const std::string& mutex) {
  static const std::array<std::string, 7> kAnnotations = {
      "FR_GUARDED_BY(", "FR_PT_GUARDED_BY(", "FR_REQUIRES(",
      "FR_REQUIRES_SHARED(", "FR_ACQUIRE(", "FR_RELEASE(", "FR_EXCLUDES("};
  for (const std::string& line : file.scrubbed) {
    for (const std::string& ann : kAnnotations) {
      for (std::size_t pos = line.find(ann); pos != std::string::npos;
           pos = line.find(ann, pos + 1)) {
        const std::size_t open = pos + ann.size();
        const std::size_t close = line.find(')', open);
        if (close == std::string::npos) continue;
        std::size_t tail = close;
        while (tail > open && is_ident_char(line[tail - 1])) --tail;
        if (line.compare(tail, close - tail, mutex) == 0) return true;
      }
    }
  }
  return false;
}

/// mutex-needs-guards: a mutex no annotation in its file names is
/// invisible to the thread-safety analysis.
void check_mutex_needs_guards(const SourceFile& file,
                              std::vector<Violation>& out) {
  for (std::size_t n = 0; n < file.scrubbed.size(); ++n) {
    const std::string name = mutex_decl_name(file.scrubbed[n]);
    if (name.empty() || line_allows(file, n + 1, "mutex-needs-guards") ||
        has_annotation_for(file, name)) {
      continue;
    }
    out.push_back({file.path, n + 1, "mutex-needs-guards",
                   "mutex '" + name +
                       "' guards no FR_GUARDED_BY-annotated field in this "
                       "file",
                   "mutex-needs-guards|" + file.path + "|" + name});
  }
}

/// no-raw-thread: the pool is the only place threads are born, so task
/// groups, stealing and shutdown stay the only concurrency protocol.
void check_no_raw_thread(const SourceFile& file, std::vector<Violation>& out) {
  for (std::size_t n = 0; n < file.scrubbed.size(); ++n) {
    if (line_allows(file, n + 1, "no-raw-thread")) continue;
    const std::string& line = file.scrubbed[n];
    std::vector<std::string> spawns;
    for (const char* token : {"std::jthread", "std::async", "pthread_create"}) {
      if (line.find(token) != std::string::npos) spawns.push_back(token);
    }
    const std::string thread = "std::thread";
    for (std::size_t pos = line.find(thread); pos != std::string::npos;
         pos = line.find(thread, pos + 1)) {
      // std::thread::hardware_concurrency() is a capability query, not
      // a spawn; scope-qualified uses stay legal.
      const std::size_t end = pos + thread.size();
      const bool scope_use = line.compare(end, 2, "::") == 0;
      if (!scope_use && (end >= line.size() || !is_ident_char(line[end]))) {
        spawns.push_back(thread);
      }
    }
    for (const std::string& token : spawns) {
      out.push_back({file.path, n + 1, "no-raw-thread",
                     "'" + token +
                         "' outside common/thread_pool — use "
                         "ThreadPool/TaskGroup",
                     "no-raw-thread|" + file.path + "|" + token});
    }
  }
}

/// no-c-random: all randomness flows through the seeded generators in
/// common/random.h, so runs reproduce from one seed.
void check_no_c_random(const SourceFile& file, std::vector<Violation>& out) {
  for (std::size_t n = 0; n < file.scrubbed.size(); ++n) {
    if (line_allows(file, n + 1, "no-c-random")) continue;
    const std::string& line = file.scrubbed[n];
    for (const std::string func : {"rand", "srand", "rand_r"}) {
      for (std::size_t pos = line.find(func); pos != std::string::npos;
           pos = line.find(func, pos + 1)) {
        const std::size_t after = pos + func.size();
        const std::size_t paren = skip_space(line, after);
        const bool called = paren < line.size() && line[paren] == '(';
        const bool whole_word =
            (pos == 0 || !is_ident_char(line[pos - 1])) &&
            (after >= line.size() || !is_ident_char(line[after]));
        if (!called || !whole_word) continue;
        out.push_back({file.path, n + 1, "no-c-random",
                       "'" + func +
                           "()' is banned — use the seeded generators in "
                           "common/random.h",
                       "no-c-random|" + file.path + "|" + func});
      }
    }
  }
}

/// no-iostream-in-lib: <iostream> drags static-init order and
/// unsynchronized stream state into library code, which prints nothing:
/// it returns text, and tools/ and bench/ print it via <cstdio>.
void check_no_iostream(const SourceFile& file, std::vector<Violation>& out) {
  for (std::size_t n = 0; n < file.scrubbed.size(); ++n) {
    if (without_space(file.scrubbed[n]).find("#include<iostream>") ==
            std::string::npos ||
        line_allows(file, n + 1, "no-iostream-in-lib")) {
      continue;
    }
    out.push_back({file.path, n + 1, "no-iostream-in-lib",
                   "<iostream> in library code — return text and "
                   "print it from tools/ or bench/ via <cstdio>",
                   "no-iostream-in-lib|" + file.path});
  }
}

/// no-unbounded-retry: each condition-driven loop is delimited (header
/// parens, then the braced body or the single statement), and a region
/// that mentions retry/backoff must also mention a bound. Counted `for`
/// loops are exempt, since their trip count bounds them, unless the
/// header itself talks about retrying or is the infinite `for (;;)`.
/// Loop bodies are capped at kMaxLoopLines.
void check_unbounded_retry(const SourceFile& file,
                           std::vector<Violation>& out) {
  constexpr std::size_t kMaxLoopLines = 200;
  const auto& lines = file.scrubbed;
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& line = lines[n];
    // The leftmost whole-word `while` or `for` on the line.
    std::size_t keyword_pos = std::string::npos;
    bool is_for = false;
    for (const std::string keyword : {"while", "for"}) {
      for (std::size_t pos = line.find(keyword); pos != std::string::npos;
           pos = line.find(keyword, pos + 1)) {
        const std::size_t end = pos + keyword.size();
        if ((pos == 0 || !is_ident_char(line[pos - 1])) &&
            (end >= line.size() || !is_ident_char(line[end]))) {
          if (pos < keyword_pos) {
            keyword_pos = pos;
            is_for = keyword == "for";
          }
          break;
        }
      }
    }
    if (keyword_pos == std::string::npos ||
        line_allows(file, n + 1, "no-unbounded-retry")) {
      continue;
    }

    // Walk from the keyword: first the parenthesized header, then a
    // braced body (to its matching close) or one statement (to ';').
    int paren_depth = 0;
    int brace_depth = 0;
    bool header_done = false;
    bool in_braces = false;
    bool done = false;
    std::string header;
    std::string region;
    for (std::size_t m = n; m < lines.size() && m < n + kMaxLoopLines && !done;
         ++m) {
      const std::string& body = lines[m];
      const std::size_t start = m == n ? keyword_pos : 0;
      region += body.substr(start) + "\n";
      for (std::size_t i = start; i < body.size() && !done; ++i) {
        const char c = body[i];
        if (c == '(') ++paren_depth;
        if (c == ')' && --paren_depth == 0) header_done = true;
        if (!header_done) {
          if (paren_depth > 0 && !(c == '(' && paren_depth == 1)) header += c;
          continue;
        }
        if (c == '{') {
          ++brace_depth;
          in_braces = true;
        }
        if (c == '}' && --brace_depth == 0 && in_braces) done = true;
        if (c == ';' && !in_braces && paren_depth == 0) done = true;
      }
    }

    const std::string lowered_header = to_lower(header);
    if (is_for && without_space(lowered_header) != ";;" &&
        !mentions_any(lowered_header, {"retry", "backoff"})) {
      continue;
    }
    const std::string lowered = to_lower(region);
    if (!mentions_any(lowered, {"retry", "backoff"}) ||
        mentions_any(lowered, {"max_attempts", "max_retries", "attempt_limit",
                               "retry_budget", "deadline"})) {
      continue;
    }
    out.push_back({file.path, n + 1, "no-unbounded-retry",
                   "retry/backoff loop without a visible bound — reference "
                   "max_attempts/max_retries/attempt_limit/retry_budget or "
                   "a deadline",
                   "no-unbounded-retry|" + file.path + "|" +
                       without_space(line.substr(keyword_pos))});
  }
}

/// crash-point-required: a PFS function applying two or more distinct
/// metadata sub-updates must fire FR_CRASH_POINT so the crash-state
/// enumerator (faults/crash_states.h) can interrupt it between them.
/// Functions are delimited by column-0 `Type Class::name(` lines; one
/// mutation alone is atomic from the enumerator's point of view.
void check_crash_point_required(const SourceFile& file,
                                std::vector<Violation>& out) {
  static const std::array<std::string, 4> kMutations = {
      "dirents.push_back", "dirents.erase", "link_ea.push_back", "erase_if"};
  std::size_t start = std::string::npos;
  std::set<std::string> mutations;
  bool has_point = false;

  const auto flush = [&] {
    if (start != std::string::npos && mutations.size() >= 2 && !has_point &&
        !line_allows(file, start + 1, "crash-point-required")) {
      // The function name (`Class::name`) ends right before the '('.
      const std::string& head = file.scrubbed[start];
      const std::size_t end = head.find('(');
      std::size_t begin = end;
      while (begin > 0 &&
             (is_ident_char(head[begin - 1]) || head[begin - 1] == ':')) {
        --begin;
      }
      out.push_back({file.path, start + 1, "crash-point-required",
                     "function applies " + std::to_string(mutations.size()) +
                         " distinct metadata sub-updates with no "
                         "FR_CRASH_POINT — instrument them so crash-state "
                         "enumeration can interrupt the op",
                     "crash-point-required|" + file.path + "|" +
                         head.substr(begin, end - begin)});
    }
    mutations.clear();
    has_point = false;
  };

  for (std::size_t n = 0; n < file.scrubbed.size(); ++n) {
    const std::string& line = file.scrubbed[n];
    // A definition head starts in column 0 (not a brace, directive or
    // body line) and qualifies its name before the parameter list.
    const bool column_zero = !line.empty() && line[0] != ' ' &&
                             line[0] != '\t' && line[0] != '#' &&
                             line[0] != '{' && line[0] != '}';
    const std::size_t paren = line.find('(');
    if (column_zero && paren != std::string::npos && line.find("::") < paren) {
      flush();
      start = n;
      continue;
    }
    if (start == std::string::npos) continue;
    if (line.find("FR_CRASH_POINT") != std::string::npos) has_point = true;
    for (const std::string& token : kMutations) {
      if (line.find(token) != std::string::npos &&
          !line_allows(file, n + 1, "crash-point-required")) {
        mutations.insert(token);
      }
    }
  }
  flush();
}

}  // namespace

std::vector<Violation> run_line_passes(const std::vector<SourceFile>& files,
                                       const PassOptions& options) {
  std::vector<Violation> out;
  for (const SourceFile& file : files) {
    // The wrapper layer owns the raw std primitives the capabilities
    // wrap, and the pool is where threads are born.
    if (!path_ends_with(file.path, "common/mutex.h")) {
      check_mutex_needs_guards(file, out);
    }
    if (!path_ends_with(file.path, "common/thread_pool.h") &&
        !path_ends_with(file.path, "common/thread_pool.cpp")) {
      check_no_raw_thread(file, out);
    }
    check_no_c_random(file, out);
    if (options.treat_all_as_src || path_contains_dir(file.path, "src")) {
      check_no_iostream(file, out);
    }
    check_unbounded_retry(file, out);
    if (file.path.find("pfs") != std::string::npos) {
      check_crash_point_required(file, out);
    }
  }
  return out;
}

std::vector<Violation> run_all_passes(const std::vector<SourceFile>& files,
                                      const SymbolTable& /*symbols*/,
                                      const IncludeGraph& includes,
                                      const LockGraph& lock_graph,
                                      const CallGraph& call_graph,
                                      const Summaries& summaries,
                                      const WireModel& wire,
                                      const PassOptions& options) {
  std::vector<Violation> out = run_lock_order_pass(lock_graph, files);
  const auto append = [&out](std::vector<Violation> more) {
    out.insert(out.end(), std::make_move_iterator(more.begin()),
               std::make_move_iterator(more.end()));
  };
  append(run_sim_time_pass(files, options));
  append(run_determinism_pass(files));
  append(run_lock_order_transitive_pass(lock_graph, summaries, files));
  append(run_blocking_under_lock_pass(summaries, files));
  append(run_determinism_taint_pass(files, call_graph, summaries, includes));
  append(run_guarded_by_pass(summaries, files));
  append(run_serdes_asymmetry_pass(wire, files));
  append(run_unchecked_wire_count_pass(wire, files));
  append(run_schema_drift_pass(wire, files, options));
  append(run_line_passes(files, options));
  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  return out;
}

}  // namespace fr_analysis
