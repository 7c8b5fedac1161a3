#include "analysis/symbols.h"

#include <algorithm>
#include <array>

#include "analysis/scopes.h"

namespace fr_analysis {

namespace {

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Matches a mutex type name ending at token k; returns "" when tokens
/// around k do not spell one. Accepts the annotated wrappers (Mutex /
/// SharedMutex, possibly namespace-qualified) and the raw std types.
std::string mutex_type_at(const std::vector<Token>& toks, std::size_t k,
                          bool& wrapper) {
  const Token& t = toks[k];
  if (t.kind != TokKind::kIdent) return "";
  if (t.text == "Mutex" || t.text == "SharedMutex") {
    wrapper = true;
    return t.text;
  }
  if ((t.text == "mutex" || t.text == "shared_mutex") && k >= 2 &&
      is_punct(toks[k - 1], "::") && toks[k - 2].kind == TokKind::kIdent &&
      toks[k - 2].text == "std") {
    wrapper = false;
    return "std::" + t.text;
  }
  return "";
}

bool all_caps(const std::string& s) {
  bool has_alpha = false;
  for (const char c : s) {
    if (c >= 'a' && c <= 'z') return false;
    if (c >= 'A' && c <= 'Z') has_alpha = true;
  }
  return has_alpha;
}

const std::array<const char*, 2> kGuardedAnns = {"FR_GUARDED_BY",
                                                 "FR_PT_GUARDED_BY"};
const std::array<const char*, 10> kOtherAnns = {
    "FR_REQUIRES",       "FR_REQUIRES_SHARED", "FR_ACQUIRE",
    "FR_ACQUIRE_SHARED", "FR_RELEASE",         "FR_RELEASE_SHARED",
    "FR_TRY_ACQUIRE",    "FR_EXCLUDES",        "FR_ASSERT_CAPABILITY",
    "FR_RETURN_CAPABILITY"};

struct AnnRef {
  std::string name;  ///< trailing identifier of the annotation argument
  std::string file;
  std::string class_path;
  bool guarded = false;  ///< FR_GUARDED_BY/FR_PT_GUARDED_BY vs the rest
};

/// True when the declaration at this scope stack is a class member (any
/// enclosing class scope or out-of-line member context).
bool inside_class(const ScopeTracker& scopes) {
  for (const Scope& scope : scopes.stack()) {
    if (scope.kind == ScopeKind::kClass || !scope.class_context.empty()) {
      return true;
    }
  }
  return false;
}

}  // namespace

SymbolTable SymbolTable::build(const std::vector<SourceFile>& files,
                               const IncludeGraph& includes) {
  SymbolTable table;
  std::vector<AnnRef> refs;

  for (const SourceFile& file : files) {
    ScopeTracker scopes;
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t k = 0; k < toks.size(); ++k) {
      // --- Mutex declarations: <type> <name> ; -----------------------
      // Also <type> <name> { ... } ; — the brace-initialized form
      // (`Mutex mutex_{};`).
      bool wrapper = false;
      const std::string type = mutex_type_at(toks, k, wrapper);
      bool is_decl = false;
      if (!type.empty() && k + 2 < toks.size() &&
          toks[k + 1].kind == TokKind::kIdent && !all_caps(toks[k + 1].text)) {
        if (is_punct(toks[k + 2], ";")) {
          is_decl = true;
        } else if (is_punct(toks[k + 2], "{")) {
          int depth = 0;
          std::size_t m = k + 2;
          for (; m < toks.size(); ++m) {
            if (is_punct(toks[m], "{")) ++depth;
            if (is_punct(toks[m], "}")) {
              --depth;
              if (depth == 0) {
                ++m;
                break;
              }
            }
          }
          is_decl = m < toks.size() && is_punct(toks[m], ";");
        }
      }
      if (is_decl) {
        // `class Mutex ...` and `using Mutex = ...` heads are not
        // declarations of a variable; reject when the previous
        // identifier is a keyword introducing a type.
        const bool preceded_by_class =
            k >= 1 && toks[k - 1].kind == TokKind::kIdent &&
            (toks[k - 1].text == "class" || toks[k - 1].text == "struct" ||
             toks[k - 1].text == "using" || toks[k - 1].text == "typename");
        if (!preceded_by_class) {
          MutexDecl decl;
          decl.name = toks[k + 1].text;
          decl.type = type;
          decl.wrapper = wrapper;
          decl.class_path = scopes.class_path();
          decl.file = file.path;
          decl.line = toks[k + 1].line;
          const bool member = inside_class(scopes);
          decl.id = member ? decl.class_path + "::" + decl.name
                           : decl.file + "::" + decl.name;
          table.mutexes_.push_back(std::move(decl));
        }
      }

      // --- Annotation references: FR_*( ... <name> ) -----------------
      if (toks[k].kind == TokKind::kIdent && k + 1 < toks.size() &&
          is_punct(toks[k + 1], "(")) {
        const bool guarded =
            std::find(kGuardedAnns.begin(), kGuardedAnns.end(), toks[k].text) !=
            kGuardedAnns.end();
        const bool other =
            std::find(kOtherAnns.begin(), kOtherAnns.end(), toks[k].text) !=
            kOtherAnns.end();
        if (guarded || other) {
          // Last identifier before the matching ')' is the lock name
          // (handles qualified arguments like pool_.mutex_).
          int depth = 0;
          std::string last_ident;
          for (std::size_t m = k + 1; m < toks.size(); ++m) {
            if (is_punct(toks[m], "(")) ++depth;
            if (is_punct(toks[m], ")")) {
              --depth;
              if (depth == 0) break;
            }
            if (toks[m].kind == TokKind::kIdent) last_ident = toks[m].text;
          }
          if (!last_ident.empty()) {
            refs.push_back(
                {last_ident, file.path, scopes.class_path(), guarded});
          }
        }
      }

      scopes.advance(toks[k]);
    }
  }

  // Settle annotation counts against the declarations.
  for (const AnnRef& ref : refs) {
    const std::string id =
        table.resolve(ref.name, ref.file, ref.class_path, includes);
    if (id.empty()) continue;
    for (MutexDecl& decl : table.mutexes_) {
      if (decl.id == id) {
        if (ref.guarded) {
          ++decl.guarded_refs;
        } else {
          ++decl.other_refs;
        }
        break;
      }
    }
  }
  return table;
}

std::string SymbolTable::resolve(const std::string& name,
                                 const std::string& use_file,
                                 const std::string& use_class_path,
                                 const IncludeGraph& includes) const {
  const std::set<std::string>& visible = includes.visible_from(use_file);
  const auto is_visible = [&](const MutexDecl& d) {
    return d.file == use_file || visible.count(d.file) > 0;
  };

  // 1. Enclosing class chain, innermost first.
  std::string chain = use_class_path;
  while (!chain.empty()) {
    for (const MutexDecl& decl : mutexes_) {
      if (decl.name == name && decl.class_path == chain && is_visible(decl)) {
        return decl.id;
      }
    }
    const std::size_t cut = chain.rfind("::");
    chain = cut == std::string::npos ? "" : chain.substr(0, cut);
  }

  // 2. File-scope declarations visible to this TU.
  const MutexDecl* found = nullptr;
  for (const MutexDecl& decl : mutexes_) {
    if (decl.name == name && decl.id == decl.file + "::" + decl.name &&
        is_visible(decl)) {
      if (found != nullptr && found->id != decl.id) return "";  // ambiguous
      found = &decl;
    }
  }
  if (found != nullptr) return found->id;

  // 3. Unique TU-visible member (qualified uses like pool_.mutex_,
  // where the object's type is not tracked at token level).
  for (const MutexDecl& decl : mutexes_) {
    if (decl.name == name && is_visible(decl)) {
      if (found != nullptr && found->id != decl.id) return "";  // ambiguous
      found = &decl;
    }
  }
  return found != nullptr ? found->id : "";
}

}  // namespace fr_analysis
