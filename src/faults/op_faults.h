// Operational (environmental) fault injection.
//
// The injector in injector.h corrupts *metadata* — it plants the
// inconsistencies FaultyRank exists to find. This module injects
// *operational* faults instead: the reads themselves misbehave while
// the metadata underneath is fine. Four shapes, all seeded and
// deterministic per (server, inode slot, attempt):
//
//   - transient EIO: an inode-table read fails, succeeds on retry
//   - torn EA read: an external xattr block comes back truncated;
//     retryable like EIO, but only fires on inodes that carry EAs
//   - latency spike: the read succeeds but takes an extra fixed delay
//   - server crash: after N inode reads the server goes down hard and
//     stays down — every later read throws ServerCrashError
//
// Determinism contract: probe(slot, attempt) is a pure function of
// (seed, server label, slot, attempt). Rescanning a server replays the
// exact same fault sequence, so a check under a schedule is
// bit-reproducible for any pool size. The only latched state is the
// crash: a server that died stays dead across rescans until revive()
// or the schedule is destroyed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/mutex.h"

namespace faultyrank {

/// Thrown by ServerFaultSchedule::on_read when the server's crash point
/// is reached (and on every read after — the crash latches).
class ServerCrashError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One read's fault decision.
struct ReadFault {
  bool transient_eio = false;        ///< read failed; retry may succeed
  bool torn_ea = false;              ///< EA block truncated (EA inodes only)
  double extra_latency_seconds = 0;  ///< latency spike on this attempt
};

/// Campaign-level knobs. Rates are per-inode probabilities; a faulted
/// inode fails its first 1..max_fault_attempts attempts and then reads
/// clean, so any retry budget > max_fault_attempts always converges.
struct OpFaultConfig {
  std::uint64_t seed = 1;
  double transient_eio_rate = 0.0;
  double torn_ea_rate = 0.0;
  double latency_spike_rate = 0.0;
  double latency_spike_seconds = 50e-3;
  std::uint32_t max_fault_attempts = 2;
  /// label → crash after this many in-use inode reads. Servers absent
  /// from the map never crash.
  std::map<std::string, std::uint64_t> crash_after_reads;
};

/// Per-server fault stream. Not thread-safe across calls — exactly one
/// scan task drives a given server's schedule at a time (scan_cluster
/// resolves schedules on the submitting thread; see OpFaultSchedule).
class ServerFaultSchedule {
 public:
  ServerFaultSchedule(const OpFaultConfig& config, std::string label);

  /// Resets the read counter for a fresh scan of this server. Does NOT
  /// clear the crash latch: a dead server stays dead when rescanned.
  void begin_scan() noexcept { reads_ = 0; }

  /// Models the operator bringing a crashed server back: clears the
  /// crash latch AND consumes the crash point, so the revived server
  /// scans clean until a new schedule arms another crash. Transient
  /// EIO/torn-EA/latency streams are untouched (they are pure in
  /// (seed, label, slot, attempt) and keep replaying identically).
  void revive() noexcept {
    down_ = false;
    crash_after_ = 0;
    reads_ = 0;
  }

  /// Accounts one physical read of an in-use inode. Throws
  /// ServerCrashError at the crash point and forever after.
  void on_read();

  /// Fault decision for reading inode-table slot `slot` on attempt
  /// `attempt` (1-based). Pure function of (seed, label, slot, attempt).
  [[nodiscard]] ReadFault probe(std::uint64_t slot,
                                std::uint32_t attempt) const;

  /// Deterministic uniform in [0, 1) for backoff jitter, again pure in
  /// (seed, label, slot, attempt) — retries cost the same virtual time
  /// on every replay.
  [[nodiscard]] double jitter_unit(std::uint64_t slot,
                                   std::uint32_t attempt) const;

  [[nodiscard]] bool down() const noexcept { return down_; }
  [[nodiscard]] const std::string& label() const noexcept { return label_; }

 private:
  const OpFaultConfig* config_;
  std::string label_;
  std::uint64_t base_;             ///< hash of (seed, label)
  std::uint64_t crash_after_ = 0;  ///< 0 = never crashes
  std::uint64_t reads_ = 0;
  bool down_ = false;
};

/// Cluster-wide schedule: hands out one ServerFaultSchedule per server
/// label, created lazily. server() is mutex-guarded so a caller may
/// resolve schedules from any thread; the returned reference stays
/// valid for the schedule's lifetime (node-stable map).
class OpFaultSchedule {
 public:
  explicit OpFaultSchedule(OpFaultConfig config) : config_(std::move(config)) {}

  [[nodiscard]] ServerFaultSchedule& server(const std::string& label);
  [[nodiscard]] const OpFaultConfig& config() const noexcept {
    return config_;
  }

 private:
  OpFaultConfig config_;
  Mutex mutex_;
  std::map<std::string, std::unique_ptr<ServerFaultSchedule>> servers_
      FR_GUARDED_BY(mutex_);
};

}  // namespace faultyrank
