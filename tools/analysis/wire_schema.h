// Wire-schema extraction and serdes symmetry (DESIGN.md §16).
//
// Every wire format in this repo is a hand-written sequence of
// ByteWriter::put / ByteReader::get calls; nothing but discipline keeps
// a writer and its reader in byte-level agreement. This module
// reconstructs the schema both sides imply, mechanically:
//
//   * per function, the put<T>/put_string/put_bytes (writer) and
//     get<T>/get_string/get_bytes (reader) calls made on a recognized
//     ByteWriter/ByteReader variable — or a RecordReader, the record
//     run a ByteReader hands out — become an ordered field list;
//   * a for/while loop whose body carries wire ops becomes a repeated
//     group (the count field stays a plain scalar immediately before
//     it, exactly as encoded);
//   * an if whose body carries wire ops becomes an optional segment
//     (version gates, presence bytes); gets in the condition itself are
//     plain fields (magic/version checks consume bytes either way);
//   * a call that passes the writer/reader variable through
//     (`put_fid(w, fid)`, `LdiskfsImage::deserialize(r)`) is resolved
//     through the interprocedural call graph and the callee's fields
//     are spliced in place, so nested encoders — a server image inside
//     a cluster snapshot — inline into root schemas.
//
// Writers and readers are then paired by class (X::serialize ↔
// X::deserialize) and naming convention (put_X↔get_X, serialize_X↔
// deserialize_X, write_X↔read_X, save_X↔load_X), same-file helpers
// first. The passes built on top (passes.h):
//
//   serdes-asymmetry      paired field sequences disagree in kind,
//                         scalar width, or arity — reported with
//                         file:line witnesses on both sides;
//   unchecked-wire-count  a count read from the wire (ByteReader::get
//                         or a raw fread) reaches resize()/reserve()/a
//                         loop bound without bounded_count or an
//                         explicit comparison first;
//   schema-drift          computed schemas are diffed against the
//                         committed fingerprints in
//                         tools/analysis/wire_schemas.json — a schema
//                         change without a format-version-constant bump
//                         fails the gate.
#pragma once

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/call_graph.h"
#include "analysis/include_graph.h"
#include "analysis/token.h"

namespace fr_analysis {

enum class WireKind {
  kScalar,    ///< put<T>/get<T>; `type` is the canonical width code
  kString,    ///< put_string/get_string (u32 length prefix + bytes)
  kBytes,     ///< put_bytes/get_bytes (u64 length prefix + blob)
  kGroup,     ///< loop body repeated per a preceding count field
  kOptional,  ///< if-gated segment (presence byte, version gate)
  kCall,      ///< nested encoder call, spliced away by expansion
};

/// One field (or nested segment) of a reconstructed wire schema.
struct WireField {
  WireKind kind = WireKind::kScalar;
  /// Canonical scalar code (u8..u64, i8..i64, f32, f64); "?" when the
  /// width could not be inferred — "?" compares equal to anything.
  std::string type;
  std::string label;   ///< best-effort source name, for messages only
  std::string origin;  ///< id of the function whose body holds the op
  std::string file;
  std::size_t line = 0;
  /// kCall placeholders (before expansion).
  std::string call_name;
  std::string call_qualifier;
  bool member_call = false;
  bool call_writes = false;  ///< placeholder passes a writer (else reader)
  std::vector<WireField> children;  ///< kGroup/kOptional bodies
};

/// One function containing wire ops (directly or via pass-through
/// calls).
struct WireFn {
  std::string id;
  std::string name;
  std::string class_path;
  bool tu_local = false;
  std::string file;
  std::size_t line = 0;
  bool writes = false;  ///< any put op / writer pass-through
  bool reads = false;   ///< any get op / reader pass-through
  bool has_writer_param = false;
  bool has_reader_param = false;
  std::vector<WireField> raw;       ///< with kCall placeholders
  std::vector<WireField> expanded;  ///< placeholders spliced
};

/// A count that flowed from the wire (get<T>/fread) into an
/// allocation-sized use. `checked` uses are filtered out before this
/// struct is built — every instance is a finding candidate.
struct WireCountUse {
  std::string fn_id;
  std::string var;
  std::string source;  ///< "get" | "fread"
  std::string use;     ///< "resize" | "reserve" | "loop"
  std::string file;
  std::size_t line = 0;      ///< use site
  std::size_t def_line = 0;  ///< where the count was read
};

/// A matched writer/reader root. Indices into WireModel::functions().
struct WirePair {
  std::size_t writer = 0;
  std::size_t reader = 0;
};

/// First divergence between a pair's field sequences, with both
/// witnesses. `suppressed` marks a divergence that belongs to a nested
/// helper pair compared in its own right (reported there, not here).
struct WireMismatch {
  bool mismatch = false;
  bool suppressed = false;
  std::string detail;        ///< human sentence with both file:line sites
  std::string writer_file;
  std::size_t writer_line = 0;
  std::string reader_file;
  std::size_t reader_line = 0;
};

/// One declaration of a fixed-width scalar name.
struct ScalarDecl {
  std::string type;  ///< canonical width code
  std::string file;
  std::size_t line = 0;
};

/// One committed schema fingerprint (tools/analysis/wire_schemas.json).
struct SchemaEntry {
  std::string format;         ///< pair key: the writer's function id
  std::string writer_id;
  std::string reader_id;
  std::string file;           ///< writer's defining file
  /// Every file-scope k*Version constant of the writer's TU, as
  /// "name=value" joined by space; "" when the TU declares none.
  std::string version;
  std::string writer_schema;  ///< canonical signature, see signature()
  std::string reader_schema;
};

class WireModel {
 public:
  [[nodiscard]] static WireModel build(const std::vector<SourceFile>& files,
                                       const CallGraph& graph,
                                       const IncludeGraph& includes);

  [[nodiscard]] const std::vector<WireFn>& functions() const noexcept {
    return fns_;
  }
  [[nodiscard]] const std::vector<WirePair>& pairs() const noexcept {
    return pairs_;
  }
  [[nodiscard]] const std::vector<WireCountUse>& unchecked_counts()
      const noexcept {
    return unchecked_;
  }

  /// Canonical flat signature of a field sequence: scalars by width
  /// code, str/bytes by tag, groups/optionals recursively. Stable
  /// across line edits — this is what wire_schemas.json commits.
  [[nodiscard]] static std::string signature(
      const std::vector<WireField>& fields);

  /// Schema fingerprints computed from this corpus, sorted by format.
  [[nodiscard]] std::vector<SchemaEntry> entries() const;

  /// Names declared with two or more widths somewhere in the corpus,
  /// with the first site of each width. A put/get labelled with one
  /// computes as "?".
  [[nodiscard]] const std::map<std::string, std::vector<ScalarDecl>>&
  ambiguous_names() const noexcept {
    return ambiguous_;
  }

  /// If `entry`'s computed schemas differ from `committed` only at
  /// scalars that compute as "?", the labels of those scalars (sorted,
  /// each once); empty otherwise.
  [[nodiscard]] std::vector<std::string> wildcard_labels(
      const SchemaEntry& entry, const SchemaEntry& committed) const;

  /// Structural comparison of a pair's expanded sequences; stops at the
  /// first divergence. An optional segment on one side may absorb the
  /// same fields spelled unconditionally on the other (a version gate
  /// reads old files whose current writer always emits the field).
  [[nodiscard]] WireMismatch compare_pair(const WirePair& pair) const;

 private:
  std::vector<WireFn> fns_;
  std::vector<WirePair> pairs_;
  std::vector<WireCountUse> unchecked_;
  std::map<std::string, std::string> version_consts_;  // file → "k...=v ..."
  std::map<std::string, std::vector<ScalarDecl>> ambiguous_;
  std::set<std::pair<std::string, std::string>> pair_ids_;  // (wid, rid)
};

/// Parses a wire_schemas.json previously produced by write_schemas.
/// Returns false (out untouched) when the file cannot be read.
[[nodiscard]] bool load_schemas(const std::string& path,
                                std::vector<SchemaEntry>* out);

/// Writes the entries as a stable, reviewable JSON document, one
/// schema object per line.
void write_schemas(std::FILE* out, const std::vector<SchemaEntry>& entries);

}  // namespace fr_analysis
