// A Lustre ChangeLog work-alike.
//
// Real Lustre can record every namespace-mutating operation in a
// consumable log; the paper's planned *online* FaultyRank (§VI / §VIII)
// depends on exactly this: instead of unmounting and rescanning, an
// incremental graph builder consumes changelog records and keeps the
// metadata graph current. Records carry everything a scanner would have
// extracted for the affected objects, so applying a record updates the
// graph the same way a rescan of those inodes would.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/fid.h"
#include "common/mutex.h"
#include "pfs/ea.h"
#include "pfs/inode.h"

namespace faultyrank {

enum class ChangeOp : std::uint8_t {
  kMkdir = 0,
  kCreateFile = 1,
  kUnlink = 2,
  kHardLink = 3,
  kRename = 4,
};

[[nodiscard]] constexpr const char* to_string(ChangeOp op) noexcept {
  switch (op) {
    case ChangeOp::kMkdir: return "mkdir";
    case ChangeOp::kCreateFile: return "create";
    case ChangeOp::kUnlink: return "unlink";
    case ChangeOp::kHardLink: return "hardlink";
    case ChangeOp::kRename: return "rename";
  }
  return "?";
}

struct ChangeRecord {
  std::uint64_t index = 0;  ///< monotonically increasing sequence number
  ChangeOp op = ChangeOp::kMkdir;
  Fid target;               ///< object created / removed
  Fid parent;               ///< directory it was linked under
  std::string name;
  InodeType type = InodeType::kDirectory;
  /// kCreateFile: the allocated stripe objects, in layout order.
  /// kUnlink of a file: the stripe objects that were freed.
  std::vector<LovEaEntry> stripes;
  /// kUnlink: false when only one name of a hard-linked file went away
  /// and the object itself survives.
  bool removes_object = true;
  /// kRename only: the directory and name the entry moved away from
  /// (`parent`/`name` describe the destination).
  Fid src_parent;
  std::string src_name;
};

/// Append-only operation log with cursor-based consumption.
///
/// Thread-safe: the intended deployment has namespace operations
/// appending from the mutation path while an online checker
/// concurrently reads batches and acknowledges them, so every access
/// to the record store takes the log mutex. Records are returned by
/// value — a consumer never holds a reference into the guarded store.
class ChangeLog {
 public:
  void append(ChangeRecord record) {
    MutexLock lock(mutex_);
    record.index = next_index_++;
    records_.push_back(std::move(record));
  }

  /// Every record with index >= cursor, in order.
  [[nodiscard]] std::vector<ChangeRecord> read_from(
      std::uint64_t cursor) const {
    MutexLock lock(mutex_);
    std::vector<ChangeRecord> out;
    for (const auto& record : records_) {
      if (record.index >= cursor) out.push_back(record);
    }
    return out;
  }

  [[nodiscard]] std::uint64_t next_index() const {
    MutexLock lock(mutex_);
    return next_index_;
  }
  [[nodiscard]] std::size_t size() const {
    MutexLock lock(mutex_);
    return records_.size();
  }

  /// Drops records below `cursor` (a consumer acknowledged them).
  void purge_below(std::uint64_t cursor);

  // FRCL wire snapshot (records + cursor state) — see changelog.cpp.
  // Friends because ChangeLog itself is immovable (the mutex), so the
  // serdes functions populate a caller-provided log in place.
  friend std::vector<std::uint8_t> serialize_changelog(const ChangeLog& log);
  friend void deserialize_changelog(const std::vector<std::uint8_t>& bytes,
                                    ChangeLog& out);

 private:
  mutable Mutex mutex_;
  std::vector<ChangeRecord> records_ FR_GUARDED_BY(mutex_);
  std::uint64_t next_index_ FR_GUARDED_BY(mutex_) = 0;
};

/// Serializes the full log (every retained record plus the append
/// cursor) as an FRCL blob, under the log mutex.
[[nodiscard]] std::vector<std::uint8_t> serialize_changelog(
    const ChangeLog& log);

/// Replaces `out`'s contents with the decoded snapshot. Throws
/// SerdesError on bad magic/version, impossible enum bytes, implausible
/// counts, truncation, or trailing garbage — `out` is untouched then.
void deserialize_changelog(const std::vector<std::uint8_t>& bytes,
                           ChangeLog& out);

}  // namespace faultyrank
