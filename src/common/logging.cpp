#include "common/logging.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/annotations.h"
#include "common/mutex.h"

namespace faultyrank {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};

Mutex g_sink_mutex;
// nullptr means stderr; resolved at write time because stderr is not a
// constant expression.
std::FILE* g_sink FR_GUARDED_BY(g_sink_mutex) = nullptr;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

LogLevel log_level() { return g_level.load(); }

std::FILE* set_log_sink(std::FILE* sink) {
  MutexLock lock(g_sink_mutex);
  std::FILE* previous = g_sink;
  g_sink = sink;
  return previous;
}

void log(LogLevel level, const char* fmt, ...) {
  if (level < g_level.load(std::memory_order_relaxed)) return;

  // Format off-lock into a fixed line buffer so the critical section is
  // a single write.
  char line[1024];
  int prefix = std::snprintf(line, sizeof(line), "[faultyrank %s] ",
                             level_tag(level));
  if (prefix < 0) return;
  va_list args;
  va_start(args, fmt);
  const int body = std::vsnprintf(line + prefix, sizeof(line) - prefix - 1,
                                  fmt, args);
  va_end(args);
  std::size_t len =
      body < 0 ? static_cast<std::size_t>(prefix)
               : std::min(sizeof(line) - 2,
                          static_cast<std::size_t>(prefix) +
                              static_cast<std::size_t>(body));
  if (body >= 0 && static_cast<std::size_t>(prefix) +
                           static_cast<std::size_t>(body) >
                       sizeof(line) - 2) {
    std::memcpy(line + len - 3, "...", 3);  // mark the truncation
  }
  line[len] = '\n';
  line[len + 1] = '\0';

  MutexLock lock(g_sink_mutex);
  std::FILE* out = g_sink != nullptr ? g_sink : stderr;
  std::fputs(line, out);
}

}  // namespace faultyrank
