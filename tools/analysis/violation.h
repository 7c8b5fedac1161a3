// Violation record + output formatting for fr_analyze.
//
// Three formats: the human one on stderr (file:line: [rule] message),
// and on stdout either JSON records (--json) so scripts/check.sh and
// CI can diff violations instead of grepping stderr, or SARIF 2.1.0
// (--sarif) for code-scanning UIs.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace fr_analysis {

struct Violation {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
  /// Line-insensitive identity used by the baseline diff: stable across
  /// unrelated edits to the same file (each pass composes it from the
  /// rule plus the names involved, never from line numbers).
  std::string fingerprint;
};

inline std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Emits the violations as a JSON array of
/// {file,line,rule,message,fingerprint}.
inline void emit_json(std::FILE* out, const std::vector<Violation>& violations) {
  std::fprintf(out, "[");
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    std::fprintf(out,
                 "%s\n  {\"file\": \"%s\", \"line\": %zu, \"rule\": \"%s\", "
                 "\"message\": \"%s\", \"fingerprint\": \"%s\"}",
                 i == 0 ? "" : ",", json_escape(v.file).c_str(), v.line,
                 json_escape(v.rule).c_str(), json_escape(v.message).c_str(),
                 json_escape(v.fingerprint).c_str());
  }
  std::fprintf(out, "\n]\n");
}

inline void emit_text(std::FILE* out, const std::vector<Violation>& violations) {
  for (const Violation& v : violations) {
    std::fprintf(out, "%s:%zu: [%s] %s\n", v.file.c_str(), v.line,
                 v.rule.c_str(), v.message.c_str());
  }
}

/// Minimal SARIF 2.1.0 document (one run, one driver, one result per
/// violation) — enough for code-scanning UIs to ingest.
inline void emit_sarif(std::FILE* out, const std::string& tool_name,
                       const std::vector<Violation>& violations) {
  std::fprintf(out,
               "{\n"
               "  \"version\": \"2.1.0\",\n"
               "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
               "  \"runs\": [{\n"
               "    \"tool\": {\"driver\": {\"name\": \"%s\"}},\n"
               "    \"results\": [",
               json_escape(tool_name).c_str());
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    std::fprintf(out,
                 "%s\n      {\"ruleId\": \"%s\", "
                 "\"message\": {\"text\": \"%s\"}, "
                 "\"partialFingerprints\": {\"frAnalysis/v1\": \"%s\"}, "
                 "\"locations\": [{\"physicalLocation\": "
                 "{\"artifactLocation\": {\"uri\": \"%s\"}, "
                 "\"region\": {\"startLine\": %zu}}}]}",
                 i == 0 ? "" : ",", json_escape(v.rule).c_str(),
                 json_escape(v.message).c_str(),
                 json_escape(v.fingerprint).c_str(),
                 json_escape(v.file).c_str(), v.line == 0 ? std::size_t{1} : v.line);
  }
  std::fprintf(out,
               "\n    ]\n"
               "  }]\n"
               "}\n");
}

}  // namespace fr_analysis
