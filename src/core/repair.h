// Repair actions recommended by the detector (paper §III-F).
//
// Actions are expressed against FIDs, not PFS internals, so the planner
// stays file-system-agnostic. Each substrate's executor translates them
// into concrete writes (RepairExecutor: EA/DIRENT writes on the simulated
// Lustre cluster; BeeRepairExecutor: BeeGFS dentry/xattr/chunk-file
// writes) and reports one RepairOutcome per action, built by success()
// or failure().
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/fid.h"
#include "graph/types.h"

namespace faultyrank {

enum class RepairKind : std::uint8_t {
  /// Rewrite `target`'s stored object id to `value` (the id its
  /// neighbours expect). Used when id_rank convicts the id.
  kOverwriteId,
  /// Add (or restore) a property entry on `target` pointing to `value`
  /// with `edge_kind` (e.g. re-create a lost LinkEA or LOVEA slot).
  kAddBackPointer,
  /// Replace the property entry on `target` that currently references
  /// `stale` so that it references `value` instead.
  kRelinkProperty,
  /// Remove the property entry on `target` that references `value`
  /// (duplicate or fabricated reference).
  kRemoveReference,
  /// Move object `target` into lost+found — the fallback when the
  /// evidence cannot determine an owner (and what LFSCK does eagerly).
  kQuarantineLostFound,
  /// Report-only: inconsistency observed but no repair is justified.
  kNone,
};

[[nodiscard]] constexpr const char* to_string(RepairKind kind) noexcept {
  switch (kind) {
    case RepairKind::kOverwriteId: return "overwrite-id";
    case RepairKind::kAddBackPointer: return "add-back-pointer";
    case RepairKind::kRelinkProperty: return "relink-property";
    case RepairKind::kRemoveReference: return "remove-reference";
    case RepairKind::kQuarantineLostFound: return "lost+found";
    case RepairKind::kNone: return "none";
  }
  return "?";
}

struct RepairAction {
  RepairKind kind = RepairKind::kNone;
  Fid target;                              ///< object being modified
  Fid value;                               ///< new/expected reference
  Fid stale;                               ///< old reference (kRelinkProperty)
  EdgeKind edge_kind = EdgeKind::kGeneric; ///< which property is touched
  /// Disambiguator for kOverwriteId when two physical objects share the
  /// target id (Double Reference): pick the object whose point-back
  /// references this owner.
  Fid owner_hint;
  std::string note;                        ///< human-readable rationale

  friend bool operator==(const RepairAction& a, const RepairAction& b) {
    return a.kind == b.kind && a.target == b.target && a.value == b.value &&
           a.stale == b.stale && a.edge_kind == b.edge_kind &&
           a.owner_hint == b.owner_hint;
  }
};

using RepairPlan = std::vector<RepairAction>;

/// What a substrate's repair executor did with one action: applied, or
/// refused with the reason in `detail`.
struct RepairOutcome {
  RepairAction action;
  bool applied = false;
  std::string detail;
};

[[nodiscard]] inline RepairOutcome success(const RepairAction& action,
                                           std::string detail) {
  return {action, true, std::move(detail)};
}

[[nodiscard]] inline RepairOutcome failure(const RepairAction& action,
                                           std::string detail) {
  return {action, false, std::move(detail)};
}

}  // namespace faultyrank
