#include "analysis/tokenizer.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <sstream>
#include <utility>

namespace fr_analysis {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

/// Longest-match punctuator table; three-char entries first.
const std::array<const char*, 31> kPuncts = {
    "<<=", ">>=", "<=>", "->*", "...",                       // 3 chars
    "::", "->", "++", "--", "+=", "-=", "*=", "/=", "%=",    // 2 chars
    "&=", "|=", "^=", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "##", ".*",
    nullptr, nullptr, nullptr, nullptr};  // padding (unused)

/// Scans one file's text into tokens + a blank mask (true = replace the
/// character with a space in the scrubbed view).
struct Scanner {
  const std::string& text;
  std::vector<Token> tokens;
  std::vector<bool> blank;
  std::size_t i = 0;
  std::size_t line = 1;

  explicit Scanner(const std::string& t) : text(t), blank(t.size(), false) {}

  [[nodiscard]] char at(std::size_t k) const {
    return k < text.size() ? text[k] : '\0';
  }

  void emit(TokKind kind, std::string tok_text, std::size_t tok_line) {
    tokens.push_back({kind, std::move(tok_text), tok_line});
  }

  void blank_at(std::size_t k) {
    if (k < text.size() && text[k] != '\n') blank[k] = true;
  }

  /// Consumes a normal string/char literal starting at the opening
  /// quote; contents blanked, delimiters kept. Unterminated literals
  /// stop at end of line (robustness over strictness).
  void scan_quoted(char quote) {
    const std::size_t start_line = line;
    std::string content;
    ++i;  // opening quote stays visible
    while (i < text.size() && text[i] != quote && text[i] != '\n') {
      if (text[i] == '\\' && i + 1 < text.size() && text[i + 1] != '\n') {
        content += text[i];
        blank_at(i);
        ++i;
      }
      content += text[i];
      blank_at(i);
      ++i;
    }
    if (i < text.size() && text[i] == quote) ++i;  // closing quote visible
    emit(quote == '"' ? TokKind::kString : TokKind::kChar, std::move(content),
         start_line);
  }

  /// Consumes a raw string literal starting at the opening quote (the
  /// `R`/prefix has been consumed by the caller). Everything between
  /// the quotes — delimiter, parens, content, embedded quotes and
  /// newlines — is blanked, so nothing inside can leak into the
  /// scrubbed view or the token stream.
  void scan_raw_string() {
    const std::size_t start_line = line;
    ++i;  // opening quote stays visible
    std::string delim;
    while (i < text.size() && text[i] != '(' && text[i] != '\n' &&
           delim.size() < 16) {
      delim += text[i];
      blank_at(i);
      ++i;
    }
    if (i < text.size() && text[i] == '(') {
      blank_at(i);
      ++i;
    }
    const std::string closer = ")" + delim + "\"";
    std::string content;
    while (i < text.size()) {
      if (text.compare(i, closer.size(), closer) == 0) {
        // Blank `)delim`, keep the closing quote visible.
        for (std::size_t k = 0; k + 1 < closer.size(); ++k) blank_at(i + k);
        i += closer.size();
        break;
      }
      if (text[i] == '\n') ++line;
      content += text[i];
      blank_at(i);
      ++i;
    }
    emit(TokKind::kString, std::move(content), start_line);
  }

  void run() {
    while (i < text.size()) {
      const char c = text[i];
      if (c == '\n') {
        ++line;
        ++i;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++i;
        continue;
      }
      if (c == '/' && at(i + 1) == '/') {
        while (i < text.size() && text[i] != '\n') {
          blank_at(i);
          ++i;
        }
        continue;
      }
      if (c == '/' && at(i + 1) == '*') {
        blank_at(i);
        blank_at(i + 1);
        i += 2;
        while (i < text.size()) {
          if (text[i] == '*' && at(i + 1) == '/') {
            blank_at(i);
            blank_at(i + 1);
            i += 2;
            break;
          }
          if (text[i] == '\n') ++line;
          blank_at(i);
          ++i;
        }
        continue;
      }
      if (is_ident_start(c)) {
        const std::size_t start = i;
        while (i < text.size() && is_ident_char(text[i])) ++i;
        const std::string ident = text.substr(start, i - start);
        // Encoding prefixes fuse with an adjacent literal: R"..." and
        // u8R"..." are raw strings, u8"..."/L'x' normal literals.
        if (at(i) == '"' &&
            (ident == "R" || ident == "u8R" || ident == "uR" ||
             ident == "UR" || ident == "LR")) {
          scan_raw_string();
          continue;
        }
        if ((at(i) == '"' || at(i) == '\'') &&
            (ident == "u8" || ident == "u" || ident == "U" || ident == "L")) {
          scan_quoted(text[i]);
          continue;
        }
        emit(TokKind::kIdent, ident, line);
        continue;
      }
      if (is_digit(c) || (c == '.' && is_digit(at(i + 1)))) {
        const std::size_t start = i;
        while (i < text.size()) {
          const char d = text[i];
          if (is_ident_char(d) || d == '.' || d == '\'') {
            ++i;
            continue;
          }
          // Exponent signs: 1e+9, 0x1p-3.
          if ((d == '+' || d == '-') && i > start) {
            const char prev = text[i - 1];
            if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
              ++i;
              continue;
            }
          }
          break;
        }
        emit(TokKind::kNumber, text.substr(start, i - start), line);
        continue;
      }
      if (c == '"' || c == '\'') {
        scan_quoted(c);
        continue;
      }
      // Punctuator: longest match first.
      bool matched = false;
      for (const char* p : kPuncts) {
        if (p == nullptr) continue;
        const std::size_t len = std::string(p).size();
        if (text.compare(i, len, p) == 0) {
          emit(TokKind::kPunct, p, line);
          i += len;
          matched = true;
          break;
        }
      }
      if (!matched) {
        emit(TokKind::kPunct, std::string(1, c), line);
        ++i;
      }
    }
  }
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  // A trailing fragment (file without final newline) is still a line;
  // a file ending in '\n' contributes no extra empty line.
  if (!current.empty()) lines.push_back(std::move(current));
  return lines;
}

}  // namespace

SourceFile tokenize_text(std::string path, const std::string& text) {
  Scanner scanner(text);
  scanner.run();

  std::string scrubbed_text = text;
  for (std::size_t k = 0; k < scrubbed_text.size(); ++k) {
    if (scanner.blank[k]) scrubbed_text[k] = ' ';
  }

  SourceFile file;
  file.path = std::move(path);
  file.raw = split_lines(text);
  file.scrubbed = split_lines(scrubbed_text);
  file.scrubbed.resize(file.raw.size());  // keep the views line-aligned
  file.tokens = std::move(scanner.tokens);
  return file;
}

SourceFile tokenize_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return tokenize_text(path, buffer.str());
}

}  // namespace fr_analysis
