// Token model for the fr_analysis library (DESIGN.md §11).
//
// The analyzers in tools/analysis work on a comment-free token stream
// with per-token file/line provenance, not on raw text: every pass that
// reports a violation can point at the exact acquisition, clock call,
// or accumulation it saw, and no pass can be fooled by banned spellings
// inside comments or string literals (including multi-line raw
// strings, which a line-by-line scrubber mishandles).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace fr_analysis {

enum class TokKind {
  kIdent,   ///< identifier or keyword
  kNumber,  ///< numeric literal (integer/float, separators kept)
  kString,  ///< string literal; text holds the *content* (un-delimited)
  kChar,    ///< character literal; text holds the content
  kPunct,   ///< operator/punctuator, longest-match ("::", "+=", ...)
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;
  std::size_t line = 0;  ///< 1-based line of the token's first character
};

/// One tokenized source file. `raw` keeps the original lines (needed
/// for `allow(...)` suppression markers and EXPECT headers); `scrubbed`
/// is the raw-string-aware blanked view line-based rules match against
/// (comment bodies and literal contents replaced by spaces, line
/// lengths preserved).
struct SourceFile {
  std::string path;  ///< generic (forward-slash) path as given
  std::vector<std::string> raw;
  std::vector<std::string> scrubbed;
  std::vector<Token> tokens;
};

}  // namespace fr_analysis
