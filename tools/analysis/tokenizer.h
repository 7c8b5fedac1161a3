// Tokenizer with file/line provenance — the single lexing pass every
// fr_analyze rule builds on (DESIGN.md §11).
//
// One scan produces both views of a file:
//   * the token stream (comments dropped, literal *contents* kept in
//     Token::text so the include-graph walker can read include paths),
//   * the scrubbed line view (comments and literal contents blanked
//     with spaces, line lengths stable) for the six line rules
//     (mutex-needs-guards ... crash-point-required, analysis/passes.h).
// Raw string literals (R"delim( ... )delim", any encoding prefix) are
// handled here, so a quote or banned token inside one can no longer
// corrupt scrubbing for the rest of the file.
#pragma once

#include <string>
#include <vector>

#include "analysis/token.h"

namespace fr_analysis {

/// Tokenizes `text` (the full file contents) under the given path.
[[nodiscard]] SourceFile tokenize_text(std::string path, const std::string& text);

/// Reads and tokenizes a file from disk. Missing/unreadable files come
/// back with empty contents (the driver reports them).
[[nodiscard]] SourceFile tokenize_file(const std::string& path);

}  // namespace fr_analysis
