// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened by the benchmark itself, around the calls it makes
// into each layer's public functions; nothing inside the program is
// instrumented. A span records its name, start, end, the span that
// encloses it and the op it belongs to. Spans stay in memory and are
// written once, when the run ends, as Chrome trace-event JSON (opened by
// Perfetto and chrome://tracing) beside a per-name summary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock, nanoseconds.
[[nodiscard]] std::int64_t now_ns();

/// CPU time consumed so far by every thread of this process, in ms.
[[nodiscard]] double process_cpu_ms();

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty set.
[[nodiscard]] double median(std::vector<double> values);

/// The q-quantile (0..1) of `values` by nearest rank; 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> values, double q);

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::ptrdiff_t parent = -1;  ///< index into spans(); -1 for a root
    std::uint64_t op = 0;
  };

  /// Opens a span on construction and closes it on destruction. Scopes
  /// nest: the innermost open span is the parent of the next one.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  Tracer();

  /// Tags every span opened from now on with op id `op`.
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Writes every span as a Chrome trace-event "X" (complete) event.
  /// Returns false if the file could not be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::size_t open(std::string name);
  void close(std::size_t index);

  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
  std::uint64_t op_ = 0;
  std::int64_t origin_ns_ = 0;
};

/// Per-name summary of a trace. Self time is a span's duration minus
/// the durations of its direct children (the benchmark's spans run on
/// one thread, so children never overlap).
struct SpanStats {
  std::size_t count = 0;
  double median_ms = 0.0;
  double median_self_ms = 0.0;
  double total_ms = 0.0;
};

[[nodiscard]] std::map<std::string, SpanStats> summarize(const Tracer& tracer);

}  // namespace perfbench
