#include "trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "core/report.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

Tracer::Tracer() : origin_ns_(now_ns()) {}

Tracer::Scope::Scope(Tracer& tracer, std::string name)
    : tracer_(tracer), index_(tracer.open(std::move(name))) {}

Tracer::Scope::~Scope() { tracer_.close(index_); }

std::size_t Tracer::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : static_cast<std::ptrdiff_t>(open_.back());
  span.op = op_;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  // Scopes are destroyed in reverse order of construction, so the span
  // being closed is always the innermost open one.
  open_.pop_back();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string parent =
        span.parent < 0 ? "" : spans_[static_cast<std::size_t>(span.parent)].name;
    std::fprintf(out,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"op\": %llu, \"parent\": \"%s\"}}%s\n",
                 faultyrank::json_escape(span.name).c_str(),
                 faultyrank::json_escape(
                     span.name.substr(0, span.name.find('.')))
                     .c_str(),
                 static_cast<double>(span.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 static_cast<unsigned long long>(span.op),
                 faultyrank::json_escape(parent).c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

std::map<std::string, SpanStats> summarize(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Tracer::Span& span : spans) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    }
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      samples;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double ms =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    auto& [durations, self] = samples[spans[i].name];
    durations.push_back(ms);
    self.push_back(ms - child_ms[i]);
  }
  std::map<std::string, SpanStats> out;
  for (auto& [name, pair] : samples) {
    SpanStats& stats = out[name];
    stats.count = pair.first.size();
    for (const double ms : pair.first) stats.total_ms += ms;
    stats.median_ms = median(std::move(pair.first));
    stats.median_self_ms = median(std::move(pair.second));
  }
  return out;
}

}  // namespace perfbench
