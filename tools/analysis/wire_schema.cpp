#include "analysis/wire_schema.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>

#include "analysis/violation.h"

namespace fr_analysis {

namespace {

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

/// Token index just past the matching closer for the opener at `open`.
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

/// Canonical width code for a fixed-width scalar spelling; "" when the
/// identifier is not one.
std::string canon_scalar(const std::string& text) {
  if (text == "uint8_t") return "u8";
  if (text == "uint16_t") return "u16";
  if (text == "uint32_t") return "u32";
  if (text == "uint64_t") return "u64";
  if (text == "int8_t") return "i8";
  if (text == "int16_t") return "i16";
  if (text == "int32_t") return "i32";
  if (text == "int64_t") return "i64";
  if (text == "size_t") return "u64";
  if (text == "double") return "f64";
  if (text == "float") return "f32";
  return "";
}

/// Name → canonical scalar type for every declaration of a fixed-width
/// scalar in the corpus (members, params, locals, constants, function
/// return types). A name declared with two different widths collapses
/// to "?" — the wildcard that compares equal to anything — because a
/// token-level analyzer cannot tell which declaration an expression's
/// trailing identifier refers to. `decls` keeps the first site of each
/// width, so a collapse can be explained.
struct NameType {
  std::string type;
  std::vector<ScalarDecl> decls;
};

std::map<std::string, NameType> build_type_table(
    const std::vector<SourceFile>& files) {
  std::map<std::string, NameType> table;
  for (const SourceFile& file : files) {
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
      if (toks[k].kind != TokKind::kIdent) continue;
      const std::string type = canon_scalar(toks[k].text);
      if (type.empty()) continue;
      std::size_t j = k + 1;
      while (j < toks.size() &&
             (is_punct(toks[j], "&") || is_punct(toks[j], "*"))) {
        ++j;
      }
      if (j + 1 >= toks.size() || toks[j].kind != TokKind::kIdent) continue;
      const std::string& follower = toks[j + 1].text;
      if (toks[j + 1].kind != TokKind::kPunct ||
          (follower != ";" && follower != "=" && follower != "," &&
           follower != ")" && follower != ":" && follower != "(" &&
           follower != "{")) {
        continue;
      }
      NameType& entry = table[toks[j].text];
      const bool known_width =
          std::any_of(entry.decls.begin(), entry.decls.end(),
                      [&](const ScalarDecl& d) { return d.type == type; });
      if (known_width) continue;
      entry.decls.push_back({type, file.path, toks[j].line});
      entry.type = entry.decls.size() == 1 ? type : "?";
    }
  }
  return table;
}

/// File-scope `constexpr ... kSomethingVersion... = N` constants,
/// rendered "name=value" space-joined per file. The drift gate treats
/// these as the format-version the schema fingerprint is keyed on.
std::map<std::string, std::string> build_version_consts(
    const std::vector<SourceFile>& files) {
  std::map<std::string, std::string> out;
  for (const SourceFile& file : files) {
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t k = 0; k + 3 < toks.size(); ++k) {
      if (!is_ident(toks[k], "constexpr")) continue;
      // Within the statement: the declared name, then `=`, then value.
      std::string name;
      std::string value;
      for (std::size_t j = k + 1; j < toks.size() && j < k + 12; ++j) {
        if (is_punct(toks[j], ";")) break;
        if (toks[j].kind == TokKind::kIdent && toks[j].text.size() > 1 &&
            toks[j].text[0] == 'k' &&
            toks[j].text.find("Version") != std::string::npos &&
            j + 2 < toks.size() && is_punct(toks[j + 1], "=") &&
            toks[j + 2].kind == TokKind::kNumber) {
          name = toks[j].text;
          value = toks[j + 2].text;
          break;
        }
      }
      if (name.empty()) continue;
      std::string& joined = out[file.path];
      if (!joined.empty()) joined += " ";
      joined += name + "=" + value;
    }
  }
  return out;
}

struct CountDef {
  bool checked = false;
  std::size_t def_line = 0;
  std::string source;  // "get" | "fread"
};

/// Per-function extraction state shared by the recursive region walk.
struct Extractor {
  const SourceFile& file;
  const FunctionDef& def;
  const std::map<std::string, NameType>& types;
  std::set<std::string> writer_vars;
  std::set<std::string> reader_vars;
  std::map<std::string, CountDef> count_defs;
  std::map<std::string, std::string> container_links;  // container → count
  std::vector<WireCountUse> unchecked;
  bool writes = false;
  bool reads = false;

  const std::vector<Token>& toks() const { return file.tokens; }

  /// Last identifier of the token range that is not a chain accessor —
  /// the best human label for the expression.
  std::string trailing_label(std::size_t begin, std::size_t end) const {
    static const std::set<std::string> kNoise = {
        "size", "has_value", "value", "data", "c_str", "empty", "get"};
    std::string out;
    for (std::size_t k = begin; k < end; ++k) {
      if (toks()[k].kind == TokKind::kIdent &&
          kNoise.count(toks()[k].text) == 0 &&
          canon_scalar(toks()[k].text).empty() && toks()[k].text != "std" &&
          toks()[k].text != "static_cast") {
        out = toks()[k].text;
      }
    }
    return out;
  }

  /// Scalar width of a put() argument: an explicit static_cast wins,
  /// else the trailing identifier's declared type, else "?".
  std::string put_type(std::size_t begin, std::size_t end) const {
    for (std::size_t k = begin; k < end; ++k) {
      if (is_ident(toks()[k], "static_cast") && k + 1 < end &&
          is_punct(toks()[k + 1], "<")) {
        for (std::size_t j = k + 2; j < end; ++j) {
          if (is_punct(toks()[j], ">")) break;
          const std::string c = canon_scalar(toks()[j].text);
          if (!c.empty()) return c;
        }
      }
    }
    const std::string label = trailing_label(begin, end);
    if (!label.empty()) {
      const auto it = types.find(label);
      if (it != types.end()) return it->second.type;
    }
    return "?";
  }

  /// The `name = <this get>` variable of the statement around token
  /// `op`, plus whether the statement routes through bounded_count.
  void reader_def(std::size_t stmt_start, std::size_t op, std::string* var,
                  bool* checked) const {
    std::size_t eq = 0;
    for (std::size_t k = stmt_start; k < op; ++k) {
      if (is_punct(toks()[k], "=")) eq = k;
    }
    if (eq > 0 && toks()[eq - 1].kind == TokKind::kIdent) {
      *var = toks()[eq - 1].text;
    }
    for (std::size_t k = stmt_start; k < toks().size(); ++k) {
      if (is_punct(toks()[k], ";")) break;
      if (is_ident(toks()[k], "bounded_count")) *checked = true;
    }
  }

  /// [begin, end) of a statement body after a control head: a braced
  /// block, or a single statement up to its top-level `;`. Returns the
  /// resume index via *resume.
  void body_range(std::size_t after_head, std::size_t limit,
                  std::size_t* body_begin, std::size_t* body_end,
                  std::size_t* resume) const {
    if (after_head < limit && is_punct(toks()[after_head], "{")) {
      *body_begin = after_head + 1;
      const std::size_t past = skip_balanced(toks(), after_head, "{", "}");
      *body_end = past > 0 ? past - 1 : after_head + 1;
      *resume = past;
      return;
    }
    *body_begin = after_head;
    int paren = 0;
    int brace = 0;
    std::size_t k = after_head;
    for (; k < limit; ++k) {
      if (is_punct(toks()[k], "(")) ++paren;
      if (is_punct(toks()[k], ")")) --paren;
      if (is_punct(toks()[k], "{")) ++brace;
      if (is_punct(toks()[k], "}")) --brace;
      if (is_punct(toks()[k], ";") && paren == 0 && brace <= 0) break;
    }
    *body_end = k;
    *resume = k < limit ? k + 1 : limit;
  }

  /// Marks count variables compared against anything inside an if
  /// condition as bounds-checked (`if (n > r.remaining()) throw ...`).
  void mark_condition_checks(std::size_t begin, std::size_t end) {
    bool relational = false;
    for (std::size_t k = begin; k < end; ++k) {
      if (toks()[k].kind == TokKind::kPunct &&
          (toks()[k].text == "<" || toks()[k].text == ">" ||
           toks()[k].text == "<=" || toks()[k].text == ">=" ||
           toks()[k].text == "==" || toks()[k].text == "!=")) {
        relational = true;
      }
    }
    if (!relational) return;
    // Only occurrences at the condition's top parenthesis depth count —
    // a var buried in call arguments (`if (fread(&n, ...) != 1)`) is
    // being read there, not bounded.
    int depth = 0;
    for (std::size_t k = begin; k < end; ++k) {
      if (is_punct(toks()[k], "(")) ++depth;
      if (is_punct(toks()[k], ")")) --depth;
      if (depth > 0 || toks()[k].kind != TokKind::kIdent) continue;
      const auto it = count_defs.find(toks()[k].text);
      if (it != count_defs.end()) it->second.checked = true;
    }
  }

  void record_unchecked(const std::string& var, const char* use,
                        std::size_t line) {
    const auto it = count_defs.find(var);
    if (it == count_defs.end() || it->second.checked) return;
    unchecked.push_back({def.id, var, it->second.source, use, file.path, line,
                         it->second.def_line});
  }

  WireField scalar(std::size_t line, std::string type, std::string label) {
    WireField f;
    f.kind = WireKind::kScalar;
    f.type = std::move(type);
    f.label = std::move(label);
    f.origin = def.id;
    f.file = file.path;
    f.line = line;
    return f;
  }

  std::vector<WireField> parse_region(std::size_t begin, std::size_t end);
};

std::vector<WireField> Extractor::parse_region(std::size_t begin,
                                               std::size_t end) {
  std::vector<WireField> out;
  const std::vector<Token>& t = toks();
  std::size_t stmt_start = begin;
  std::size_t k = begin;
  while (k < end) {
    const Token& tok = t[k];
    if (is_punct(tok, ";") || is_punct(tok, "{") || is_punct(tok, "}")) {
      stmt_start = k + 1;
      ++k;
      continue;
    }
    if (tok.kind != TokKind::kIdent) {
      ++k;
      continue;
    }

    // Local ByteWriter/ByteReader/RecordReader declarations extend the
    // tracked sets (a RecordReader reads a run of records that a
    // ByteReader checked as a whole).
    if ((tok.text == "ByteWriter" || tok.text == "ByteReader" ||
         tok.text == "RecordReader") &&
        k + 1 < end && t[k + 1].kind == TokKind::kIdent) {
      (tok.text == "ByteWriter" ? writer_vars : reader_vars)
          .insert(t[k + 1].text);
      k += 2;
      continue;
    }

    // ---- control structure: loops become repeated groups ----
    if ((tok.text == "for" || tok.text == "while") && k + 1 < end &&
        is_punct(t[k + 1], "(")) {
      const std::size_t head_open = k + 1;
      const std::size_t head_past = skip_balanced(t, head_open, "(", ")");
      // Range-for container, or counted-loop bound variable.
      std::string container;
      std::string bound;
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t m = head_open; m < head_past; ++m) {
        if (is_punct(t[m], "(")) ++depth;
        if (is_punct(t[m], ")")) --depth;
        if (depth == 1 && is_punct(t[m], ":")) colon = m;
      }
      if (colon != 0) {
        for (std::size_t m = head_past - 2; m > colon; --m) {
          if (t[m].kind == TokKind::kIdent) {
            container = t[m].text;
            break;
          }
        }
      } else {
        // Condition segment: between the first two top-level `;` for a
        // for, the whole head for a while.
        std::size_t c_begin = head_open + 1;
        std::size_t c_end = head_past - 1;
        if (tok.text == "for") {
          depth = 0;
          std::vector<std::size_t> semis;
          for (std::size_t m = head_open; m < head_past; ++m) {
            if (is_punct(t[m], "(")) ++depth;
            if (is_punct(t[m], ")")) --depth;
            if (depth == 1 && is_punct(t[m], ";")) semis.push_back(m);
          }
          if (semis.size() >= 2) {
            c_begin = semis[0] + 1;
            c_end = semis[1];
          }
        }
        for (std::size_t m = c_begin; m < c_end; ++m) {
          if (t[m].kind == TokKind::kIdent && !is_ident(t[m], "size")) {
            bound = t[m].text;
          }
          // `i < x.size()` bounds on the container, not on a raw count.
          if (is_ident(t[m], "size") && m >= 2 &&
              (is_punct(t[m - 1], ".") || is_punct(t[m - 1], "->"))) {
            bound.clear();
            break;
          }
        }
        if (!bound.empty()) record_unchecked(bound, "loop", tok.line);
      }
      std::size_t body_begin = 0;
      std::size_t body_end = 0;
      std::size_t resume = 0;
      body_range(head_past, end, &body_begin, &body_end, &resume);
      std::vector<WireField> children = parse_region(body_begin, body_end);
      if (!children.empty()) {
        WireField group;
        group.kind = WireKind::kGroup;
        group.label = !container.empty() ? container : bound;
        group.origin = def.id;
        group.file = file.path;
        group.line = tok.line;
        group.children = std::move(children);
        out.push_back(std::move(group));
      }
      k = resume;
      stmt_start = k;
      continue;
    }

    // ---- if: condition gets are unconditional fields, a body with
    // wire ops is an optional segment ----
    if (tok.text == "if" && k + 1 < end && is_punct(t[k + 1], "(")) {
      const std::size_t cond_open = k + 1;
      const std::size_t cond_past = skip_balanced(t, cond_open, "(", ")");
      std::vector<WireField> cond_fields =
          parse_region(cond_open + 1, cond_past - 1);
      for (WireField& f : cond_fields) out.push_back(std::move(f));
      mark_condition_checks(cond_open + 1, cond_past - 1);
      std::size_t body_begin = 0;
      std::size_t body_end = 0;
      std::size_t resume = 0;
      body_range(cond_past, end, &body_begin, &body_end, &resume);
      std::vector<WireField> children = parse_region(body_begin, body_end);
      if (!children.empty()) {
        WireField opt;
        opt.kind = WireKind::kOptional;
        opt.origin = def.id;
        opt.file = file.path;
        opt.line = tok.line;
        opt.children = std::move(children);
        out.push_back(std::move(opt));
      }
      k = resume;
      stmt_start = k;
      continue;
    }

    // ---- calls ----
    const bool member =
        k >= 2 && (is_punct(t[k - 1], ".") || is_punct(t[k - 1], "->")) &&
        t[k - 2].kind == TokKind::kIdent;
    const std::string receiver = member ? t[k - 2].text : "";

    // Writer ops.
    if (member && writer_vars.count(receiver) > 0 && k + 1 < end &&
        is_punct(t[k + 1], "(") &&
        (tok.text == "put" || tok.text == "put_string" ||
         tok.text == "put_bytes")) {
      const std::size_t args_past = skip_balanced(t, k + 1, "(", ")");
      WireField f = scalar(tok.line, "",
                           trailing_label(k + 2, args_past - 1));
      if (tok.text == "put") {
        f.type = put_type(k + 2, args_past - 1);
      } else {
        f.kind = tok.text == "put_string" ? WireKind::kString
                                          : WireKind::kBytes;
      }
      // A blob argument still consumes reader bytes inside it
      // (`w.put_bytes(x.serialize())` stays opaque), so skip the args.
      out.push_back(std::move(f));
      writes = true;
      k = args_past;
      continue;
    }

    // Reader ops.
    if (member && reader_vars.count(receiver) > 0 &&
        (tok.text == "get" || tok.text == "get_string" ||
         tok.text == "get_bytes")) {
      std::string type = "?";
      std::size_t past = k + 1;
      if (tok.text == "get" && k + 1 < end && is_punct(t[k + 1], "<")) {
        for (std::size_t m = k + 2; m < end; ++m) {
          if (is_punct(t[m], ">")) {
            past = m + 1;
            break;
          }
          const std::string c = canon_scalar(t[m].text);
          if (!c.empty()) type = c;
        }
      }
      if (past < end && is_punct(t[past], "(")) {
        past = skip_balanced(t, past, "(", ")");
      }
      WireField f = scalar(tok.line, type, "");
      if (tok.text != "get") {
        f.kind = tok.text == "get_string" ? WireKind::kString
                                          : WireKind::kBytes;
        f.type.clear();
      }
      std::string var;
      bool checked = false;
      reader_def(stmt_start, k, &var, &checked);
      if (!var.empty()) {
        f.label = var;
        if (tok.text == "get") {
          count_defs[var] = {checked, tok.line, "get"};
        }
      }
      out.push_back(std::move(f));
      reads = true;
      k = past;
      continue;
    }

    // bounded_count: scan its arguments normally so the inner get
    // emits; the surrounding statement marks the variable checked.
    if (member && tok.text == "bounded_count") {
      ++k;
      continue;
    }

    // Allocation-sized uses of wire counts.
    if (member && (tok.text == "resize" || tok.text == "reserve") &&
        k + 1 < end && is_punct(t[k + 1], "(")) {
      const std::size_t args_past = skip_balanced(t, k + 1, "(", ")");
      for (std::size_t m = k + 2; m + 1 < args_past; ++m) {
        if (t[m].kind != TokKind::kIdent) continue;
        if (count_defs.count(t[m].text) == 0) continue;
        container_links[receiver] = t[m].text;
        record_unchecked(t[m].text, tok.text == "resize" ? "resize"
                                                         : "reserve",
                         tok.line);
      }
      k = args_past;
      continue;
    }

    // fread(&count, ...) defines a wire count too (raw-FILE formats).
    if (tok.text == "fread" && k + 1 < end && is_punct(t[k + 1], "(")) {
      const std::size_t args_past = skip_balanced(t, k + 1, "(", ")");
      if (k + 2 < args_past && is_punct(t[k + 2], "&")) {
        std::string var;
        for (std::size_t m = k + 3; m < args_past; ++m) {
          if (is_punct(t[m], ",")) break;
          if (t[m].kind == TokKind::kIdent) var = t[m].text;
        }
        if (!var.empty() && count_defs.count(var) == 0) {
          count_defs[var] = {false, tok.line, "fread"};
        }
      }
      k = args_past;
      continue;
    }

    // A call passing the writer/reader straight through becomes a
    // nested-schema placeholder; expansion splices the callee in.
    if (k + 1 < end && is_punct(t[k + 1], "(") && tok.text != "if" &&
        tok.text != "for" && tok.text != "while" && tok.text != "switch" &&
        tok.text != "return" && tok.text != "catch") {
      const std::size_t args_past = skip_balanced(t, k + 1, "(", ")");
      bool passes_writer = false;
      bool passes_reader = false;
      // Only this call's own argument depth: a stream var inside a
      // nested call (`records.push_back(get_record(r))`) belongs to the
      // inner call, which the scan reaches on its own.
      int arg_depth = 1;
      for (std::size_t m = k + 2; m + 1 < args_past; ++m) {
        if (is_punct(t[m], "(")) ++arg_depth;
        if (is_punct(t[m], ")")) --arg_depth;
        if (arg_depth != 1 || t[m].kind != TokKind::kIdent) continue;
        const bool bare =
            (is_punct(t[m - 1], "(") || is_punct(t[m - 1], ",")) &&
            (is_punct(t[m + 1], ",") || is_punct(t[m + 1], ")"));
        if (!bare) continue;
        if (writer_vars.count(t[m].text) > 0) passes_writer = true;
        if (reader_vars.count(t[m].text) > 0) passes_reader = true;
      }
      if (passes_writer || passes_reader) {
        WireField f;
        f.kind = WireKind::kCall;
        f.call_name = tok.text;
        f.origin = def.id;
        f.file = file.path;
        f.line = tok.line;
        f.member_call = member;
        f.call_writes = passes_writer;
        // `A::B::name(` qualifier chain, innermost-first join.
        std::size_t q = k;
        while (q >= 2 && is_punct(t[q - 1], "::") &&
               t[q - 2].kind == TokKind::kIdent) {
          f.call_qualifier = f.call_qualifier.empty()
                                 ? t[q - 2].text
                                 : t[q - 2].text + "::" + f.call_qualifier;
          q -= 2;
        }
        (passes_writer ? writes : reads) = true;
        out.push_back(std::move(f));
        k = args_past;
        continue;
      }
      ++k;  // scan inside the argument list (gets nested in calls)
      continue;
    }

    ++k;
  }
  return out;
}

/// Writer/reader parameters spelled in the definition head (re-scanned
/// backwards from the body brace to the previous statement boundary).
void head_params(const SourceFile& file, const FunctionDef& def,
                 Extractor& ex, bool* has_writer, bool* has_reader) {
  const std::vector<Token>& t = file.tokens;
  std::size_t head_begin = 0;
  for (std::size_t k = def.body_begin; k > 0; --k) {
    const Token& tok = t[k - 1];
    if (is_punct(tok, ";") || is_punct(tok, "}") || is_punct(tok, "{")) {
      head_begin = k;
      break;
    }
  }
  for (std::size_t k = head_begin; k + 1 < def.body_begin; ++k) {
    if (t[k].kind != TokKind::kIdent ||
        (t[k].text != "ByteWriter" && t[k].text != "ByteReader" &&
         t[k].text != "RecordReader")) {
      continue;
    }
    std::size_t j = k + 1;
    while (j < def.body_begin &&
           (is_punct(t[j], "&") || is_punct(t[j], "*"))) {
      ++j;
    }
    if (j >= def.body_begin || t[j].kind != TokKind::kIdent) continue;
    if (t[k].text == "ByteWriter") {
      ex.writer_vars.insert(t[j].text);
      *has_writer = true;
    } else {
      ex.reader_vars.insert(t[j].text);
      *has_reader = true;
    }
  }
}

/// The reader-name a writer-name pairs with under this repo's naming
/// conventions; "" when the name carries no serdes direction.
std::string paired_reader_name(const std::string& writer_name) {
  const auto map_prefix = [&](const char* from,
                              const char* to) -> std::string {
    const std::size_t n = std::strlen(from);
    if (writer_name.compare(0, n, from) == 0) {
      return to + writer_name.substr(n);
    }
    return "";
  };
  if (writer_name == "serialize") return "deserialize";
  std::string r = map_prefix("serialize_", "deserialize_");
  if (r.empty()) r = map_prefix("put_", "get_");
  if (r.empty()) r = map_prefix("write_", "read_");
  if (r.empty()) r = map_prefix("save_", "load_");
  return r;
}

std::string describe(const WireField& f) {
  switch (f.kind) {
    case WireKind::kScalar:
      return f.type + " scalar" +
             (f.label.empty() ? "" : " '" + f.label + "'");
    case WireKind::kString:
      return "string" + (f.label.empty() ? "" : " '" + f.label + "'");
    case WireKind::kBytes:
      return "length-prefixed blob";
    case WireKind::kGroup:
      return "repeated group" +
             (f.label.empty() ? "" : " ('" + f.label + "')");
    case WireKind::kOptional:
      return "optional segment";
    case WireKind::kCall:
      return "nested encoder call '" + f.call_name + "'";
  }
  return "?";
}

}  // namespace

WireModel WireModel::build(const std::vector<SourceFile>& files,
                           const CallGraph& graph,
                           const IncludeGraph& includes) {
  WireModel model;
  const std::map<std::string, NameType> types = build_type_table(files);
  for (const auto& [name, entry] : types) {
    if (entry.decls.size() > 1) model.ambiguous_[name] = entry.decls;
  }
  model.version_consts_ = build_version_consts(files);

  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& file : files) by_path[file.path] = &file;

  // 1. Extract per-definition field sequences and count uses.
  for (const FunctionDef& def : graph.functions()) {
    const auto fit = by_path.find(def.file);
    if (fit == by_path.end()) continue;
    Extractor ex{*fit->second, def, types};
    bool has_writer = false;
    bool has_reader = false;
    head_params(*fit->second, def, ex, &has_writer, &has_reader);
    std::vector<WireField> fields =
        ex.parse_region(def.body_begin + 1, def.body_end - 1);
    for (const WireCountUse& use : ex.unchecked) {
      model.unchecked_.push_back(use);
    }
    if (fields.empty()) continue;
    WireFn fn;
    fn.id = def.id;
    fn.name = def.name;
    fn.class_path = def.class_path;
    fn.tu_local = def.tu_local;
    fn.file = def.file;
    fn.line = def.line;
    fn.writes = ex.writes;
    fn.reads = ex.reads;
    fn.has_writer_param = has_writer;
    fn.has_reader_param = has_reader;
    fn.raw = std::move(fields);
    model.fns_.push_back(std::move(fn));
  }

  // 2. Expand nested-encoder placeholders through the call graph.
  std::map<std::string, std::size_t> by_id;
  for (std::size_t i = 0; i < model.fns_.size(); ++i) {
    // First definition wins (overloads share schemas in this codebase).
    by_id.emplace(model.fns_[i].id, i);
  }
  std::map<std::string, std::vector<std::size_t>> by_name;
  for (std::size_t i = 0; i < model.fns_.size(); ++i) {
    by_name[model.fns_[i].name].push_back(i);
  }

  std::set<std::string> expanding;
  std::map<std::string, std::vector<WireField>> memo;
  const std::function<std::vector<WireField>(const WireFn&)> expand_fn =
      [&](const WireFn& fn) -> std::vector<WireField> {
    const auto mit = memo.find(fn.id);
    if (mit != memo.end()) return mit->second;
    expanding.insert(fn.id);
    const std::function<std::vector<WireField>(
        const std::vector<WireField>&)>
        expand_fields =
            [&](const std::vector<WireField>& in) -> std::vector<WireField> {
      std::vector<WireField> out;
      for (const WireField& f : in) {
        if (f.kind == WireKind::kGroup || f.kind == WireKind::kOptional) {
          WireField copy = f;
          copy.children = expand_fields(f.children);
          out.push_back(std::move(copy));
          continue;
        }
        if (f.kind != WireKind::kCall) {
          out.push_back(f);
          continue;
        }
        // Resolve the callee: call graph first, then the unique wire
        // function with this name taking the right stream parameter
        // (covers `image.serialize(w)`, ambiguous to name resolution).
        const WireFn* target = nullptr;
        const std::string id =
            graph.resolve(f.call_name, f.call_qualifier, f.member_call,
                          f.file, fn.class_path, includes);
        if (!id.empty()) {
          const auto it = by_id.find(id);
          if (it != by_id.end()) target = &model.fns_[it->second];
        }
        if (target == nullptr) {
          const auto nit = by_name.find(f.call_name);
          if (nit != by_name.end()) {
            for (const std::size_t i : nit->second) {
              const WireFn& cand = model.fns_[i];
              if (f.call_writes ? !cand.has_writer_param
                                : !cand.has_reader_param) {
                continue;
              }
              if (target != nullptr) {
                target = nullptr;  // ambiguous — keep the placeholder
                break;
              }
              target = &cand;
            }
          }
        }
        if (target == nullptr || expanding.count(target->id) > 0) {
          out.push_back(f);  // unresolved or recursive: keep as kCall
          continue;
        }
        std::vector<WireField> spliced = expand_fn(*target);
        for (WireField& s : spliced) out.push_back(std::move(s));
      }
      return out;
    };
    std::vector<WireField> expanded = expand_fields(fn.raw);
    expanding.erase(fn.id);
    memo[fn.id] = expanded;
    return expanded;
  };
  for (WireFn& fn : model.fns_) fn.expanded = expand_fn(fn);

  // 3. Pair writers with readers: same class, then same file, then the
  // unique corpus-wide candidate under the naming conventions.
  std::map<std::string, std::vector<std::size_t>> readers_by_name;
  for (std::size_t i = 0; i < model.fns_.size(); ++i) {
    if (model.fns_[i].reads) readers_by_name[model.fns_[i].name].push_back(i);
  }
  for (std::size_t wi = 0; wi < model.fns_.size(); ++wi) {
    const WireFn& w = model.fns_[wi];
    if (!w.writes) continue;
    const std::string rname = paired_reader_name(w.name);
    if (rname.empty()) continue;
    const auto rit = readers_by_name.find(rname);
    if (rit == readers_by_name.end()) continue;
    const std::vector<std::size_t>& cands = rit->second;
    const auto pick = [&](auto&& pred) -> std::size_t {
      std::size_t found = model.fns_.size();
      for (const std::size_t ri : cands) {
        if (ri == wi || !pred(model.fns_[ri])) continue;
        if (found != model.fns_.size()) return model.fns_.size();  // ambiguous
        found = ri;
      }
      return found;
    };
    std::size_t ri = pick([&](const WireFn& r) {
      return !w.class_path.empty() && r.class_path == w.class_path &&
             r.file == w.file;
    });
    if (ri == model.fns_.size()) {
      ri = pick([&](const WireFn& r) {
        return !w.class_path.empty() && r.class_path == w.class_path;
      });
    }
    if (ri == model.fns_.size()) {
      ri = pick([&](const WireFn& r) { return r.file == w.file; });
    }
    if (ri == model.fns_.size()) {
      ri = pick([](const WireFn&) { return true; });
    }
    if (ri == model.fns_.size()) continue;
    model.pairs_.push_back({wi, ri});
    model.pair_ids_.emplace(w.id, model.fns_[ri].id);
  }
  return model;
}

std::string WireModel::signature(const std::vector<WireField>& fields) {
  std::string out;
  for (const WireField& f : fields) {
    if (!out.empty()) out += " ";
    switch (f.kind) {
      case WireKind::kScalar: out += f.type; break;
      case WireKind::kString: out += "str"; break;
      case WireKind::kBytes: out += "bytes"; break;
      case WireKind::kGroup:
        out += "rep{" + signature(f.children) + "}";
        break;
      case WireKind::kOptional:
        out += "opt{" + signature(f.children) + "}";
        break;
      case WireKind::kCall: out += "call:" + f.call_name; break;
    }
  }
  return out;
}

std::vector<SchemaEntry> WireModel::entries() const {
  std::vector<SchemaEntry> out;
  for (const WirePair& pair : pairs_) {
    const WireFn& w = fns_[pair.writer];
    const WireFn& r = fns_[pair.reader];
    SchemaEntry entry;
    entry.format = w.id;
    entry.writer_id = w.id;
    entry.reader_id = r.id;
    entry.file = w.file;
    const auto vit = version_consts_.find(w.file);
    entry.version = vit != version_consts_.end() ? vit->second : "";
    entry.writer_schema = signature(w.expanded);
    entry.reader_schema = signature(r.expanded);
    out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(),
            [](const SchemaEntry& a, const SchemaEntry& b) {
              return a.format < b.format;
            });
  return out;
}

namespace {

/// signature()'s tokens, each with the field that produced it:
/// scalars by width, "str", "bytes", "call:name", and "rep{"/"opt{" …
/// "}" around a segment.
void flatten(const std::vector<WireField>& fields,
             std::vector<std::pair<std::string, const WireField*>>* out) {
  for (const WireField& f : fields) {
    switch (f.kind) {
      case WireKind::kScalar: out->push_back({f.type, &f}); break;
      case WireKind::kString: out->push_back({"str", &f}); break;
      case WireKind::kBytes: out->push_back({"bytes", &f}); break;
      case WireKind::kGroup:
      case WireKind::kOptional:
        out->push_back({f.kind == WireKind::kGroup ? "rep{" : "opt{", &f});
        flatten(f.children, out);
        out->push_back({"}", &f});
        break;
      case WireKind::kCall: out->push_back({"call:" + f.call_name, &f}); break;
    }
  }
}

/// A committed signature split into flatten()'s tokens.
std::vector<std::string> split_signature(const std::string& signature) {
  std::vector<std::string> out;
  std::size_t k = 0;
  while (k < signature.size()) {
    if (signature[k] == ' ') {
      ++k;
    } else if (signature[k] == '}') {
      out.emplace_back("}");
      ++k;
    } else if (signature.compare(k, 4, "rep{") == 0 ||
               signature.compare(k, 4, "opt{") == 0) {
      out.push_back(signature.substr(k, 4));
      k += 4;
    } else {
      const std::size_t end = signature.find_first_of(" }", k);
      out.push_back(signature.substr(k, end - k));
      k = end == std::string::npos ? signature.size() : end;
    }
  }
  return out;
}

/// Adds the labels of `fields` that read "?" where `committed` reads
/// anything else; false when some other token differs.
bool collect_wildcards(const std::vector<WireField>& fields,
                       const std::string& committed,
                       std::set<std::string>* labels) {
  std::vector<std::pair<std::string, const WireField*>> computed;
  flatten(fields, &computed);
  const std::vector<std::string> old = split_signature(committed);
  if (old.size() != computed.size()) return false;
  for (std::size_t i = 0; i < old.size(); ++i) {
    if (old[i] == computed[i].first) continue;
    if (computed[i].first != "?") return false;
    labels->insert(computed[i].second->label);
  }
  return true;
}

}  // namespace

std::vector<std::string> WireModel::wildcard_labels(
    const SchemaEntry& entry, const SchemaEntry& committed) const {
  const WireFn* writer = nullptr;
  const WireFn* reader = nullptr;
  for (const WireFn& fn : fns_) {
    if (fn.id == entry.writer_id && writer == nullptr) writer = &fn;
    if (fn.id == entry.reader_id && reader == nullptr) reader = &fn;
  }
  std::set<std::string> labels;
  if (writer == nullptr || reader == nullptr ||
      !collect_wildcards(writer->expanded, committed.writer_schema,
                         &labels) ||
      !collect_wildcards(reader->expanded, committed.reader_schema,
                         &labels)) {
    return {};
  }
  return {labels.begin(), labels.end()};
}

WireMismatch WireModel::compare_pair(const WirePair& pair) const {
  const WireFn& wfn = fns_[pair.writer];
  const WireFn& rfn = fns_[pair.reader];
  WireMismatch result;

  const auto fill = [&](const WireField* wf, const WireField* rf,
                        const std::string& why) {
    result.mismatch = true;
    const std::string wdesc =
        wf != nullptr
            ? describe(*wf) + " (" + wf->file + ":" + std::to_string(wf->line) +
                  ")"
            : "nothing (sequence ends)";
    const std::string rdesc =
        rf != nullptr
            ? describe(*rf) + " (" + rf->file + ":" + std::to_string(rf->line) +
                  ")"
            : "nothing (sequence ends)";
    result.detail = "writer " + wfn.id + " puts " + wdesc + " where reader " +
                    rfn.id + " expects " + rdesc +
                    (why.empty() ? "" : " — " + why);
    if (wf != nullptr) {
      result.writer_file = wf->file;
      result.writer_line = wf->line;
    } else {
      result.writer_file = wfn.file;
      result.writer_line = wfn.line;
    }
    if (rf != nullptr) {
      result.reader_file = rf->file;
      result.reader_line = rf->line;
    } else {
      result.reader_file = rfn.file;
      result.reader_line = rfn.line;
    }
    // A divergence entirely inside a nested helper pair is that pair's
    // finding, not this root's.
    if (wf != nullptr && rf != nullptr && wf->origin != wfn.id &&
        rf->origin != rfn.id &&
        pair_ids_.count({wf->origin, rf->origin}) > 0) {
      result.suppressed = true;
    }
  };

  const std::function<bool(std::vector<const WireField*>,
                           std::vector<const WireField*>)>
      compare_seq = [&](std::vector<const WireField*> ws,
                        std::vector<const WireField*> rs) -> bool {
    const auto ptrs = [](const std::vector<WireField>& v) {
      std::vector<const WireField*> out;
      for (const WireField& f : v) out.push_back(&f);
      return out;
    };
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ws.size() || j < rs.size()) {
      if (i == ws.size()) {
        fill(nullptr, rs[j], "the writer's sequence ends here");
        return false;
      }
      if (j == rs.size()) {
        fill(ws[i], nullptr, "the reader's sequence ends here");
        return false;
      }
      const WireField& wf = *ws[i];
      const WireField& rf = *rs[j];
      if (wf.kind == WireKind::kOptional && rf.kind == WireKind::kOptional) {
        if (!compare_seq(ptrs(wf.children), ptrs(rf.children))) return false;
        ++i;
        ++j;
        continue;
      }
      // One-sided optional: the gated fields may be spelled
      // unconditionally on the other side (version-gated reads of a
      // field every current writer emits). Splice and retry.
      if (wf.kind == WireKind::kOptional) {
        std::vector<const WireField*> spliced(ws.begin(),
                                              ws.begin() + i);
        for (const WireField& c : wf.children) spliced.push_back(&c);
        spliced.insert(spliced.end(), ws.begin() + i + 1, ws.end());
        ws = std::move(spliced);
        continue;
      }
      if (rf.kind == WireKind::kOptional) {
        std::vector<const WireField*> spliced(rs.begin(),
                                              rs.begin() + j);
        for (const WireField& c : rf.children) spliced.push_back(&c);
        spliced.insert(spliced.end(), rs.begin() + j + 1, rs.end());
        rs = std::move(spliced);
        continue;
      }
      if (wf.kind != rf.kind) {
        fill(&wf, &rf, "field kinds differ");
        return false;
      }
      if (wf.kind == WireKind::kGroup) {
        if (!compare_seq(ptrs(wf.children), ptrs(rf.children))) return false;
      } else if (wf.kind == WireKind::kScalar) {
        if (wf.type != rf.type && wf.type != "?" && rf.type != "?") {
          fill(&wf, &rf, "scalar widths differ");
          return false;
        }
      }
      ++i;
      ++j;
    }
    return true;
  };

  std::vector<const WireField*> ws;
  for (const WireField& f : wfn.expanded) ws.push_back(&f);
  std::vector<const WireField*> rs;
  for (const WireField& f : rfn.expanded) rs.push_back(&f);
  compare_seq(std::move(ws), std::move(rs));
  return result;
}

namespace {

/// `"key": "..."` extraction mirroring the baseline parser (one object
/// per line, json_escape encoding).
std::string extract_string(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  at += needle.size();
  while (at < line.size() && (line[at] == ' ' || line[at] == '\t')) ++at;
  if (at >= line.size() || line[at] != '"') return "";
  ++at;
  std::string out;
  while (at < line.size()) {
    const char c = line[at];
    if (c == '"') break;
    if (c == '\\' && at + 1 < line.size()) {
      out += line[at + 1];
      at += 2;
      continue;
    }
    out += c;
    ++at;
  }
  return out;
}

}  // namespace

bool load_schemas(const std::string& path, std::vector<SchemaEntry>* out) {
  std::ifstream in(path);
  if (!in) return false;
  out->clear();
  std::string line;
  while (std::getline(in, line)) {
    SchemaEntry entry;
    entry.format = extract_string(line, "format");
    if (entry.format.empty()) continue;
    entry.writer_id = extract_string(line, "writer");
    entry.reader_id = extract_string(line, "reader");
    entry.file = extract_string(line, "file");
    entry.version = extract_string(line, "version");
    entry.writer_schema = extract_string(line, "writer_schema");
    entry.reader_schema = extract_string(line, "reader_schema");
    out->push_back(std::move(entry));
  }
  return true;
}

void write_schemas(std::FILE* out, const std::vector<SchemaEntry>& entries) {
  std::fprintf(out, "{\"schemas\": [");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const SchemaEntry& e = entries[i];
    std::fprintf(out,
                 "%s\n  {\"format\": \"%s\", \"writer\": \"%s\", "
                 "\"reader\": \"%s\", \"file\": \"%s\", \"version\": \"%s\", "
                 "\"writer_schema\": \"%s\", \"reader_schema\": \"%s\"}",
                 i == 0 ? "" : ",", json_escape(e.format).c_str(),
                 json_escape(e.writer_id).c_str(),
                 json_escape(e.reader_id).c_str(), json_escape(e.file).c_str(),
                 json_escape(e.version).c_str(),
                 json_escape(e.writer_schema).c_str(),
                 json_escape(e.reader_schema).c_str());
  }
  std::fprintf(out, "\n]}\n");
}

}  // namespace fr_analysis
