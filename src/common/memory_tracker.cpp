#include "common/memory_tracker.h"

#include <cstdio>
#include <cstring>

namespace faultyrank {

namespace {

// Reads a "<Field>:  <kB> kB" line from /proc/self/status.
std::uint64_t read_status_kb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t field_len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      std::sscanf(line + field_len + 1, "%lu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

}  // namespace

std::uint64_t rss_bytes() { return read_status_kb("VmRSS"); }

std::uint64_t peak_rss_bytes() { return read_status_kb("VmHWM"); }

const char* format_bytes(std::uint64_t bytes, char* buf, int buf_size) {
  const double b = static_cast<double>(bytes);
  if (bytes >= 1ULL << 30) {
    std::snprintf(buf, static_cast<std::size_t>(buf_size), "%.2f GB",
                  b / (1ULL << 30));
  } else if (bytes >= 1ULL << 20) {
    std::snprintf(buf, static_cast<std::size_t>(buf_size), "%.2f MB",
                  b / (1ULL << 20));
  } else if (bytes >= 1ULL << 10) {
    std::snprintf(buf, static_cast<std::size_t>(buf_size), "%.2f KB",
                  b / (1ULL << 10));
  } else {
    std::snprintf(buf, static_cast<std::size_t>(buf_size), "%lu B",
                  static_cast<unsigned long>(bytes));
  }
  return buf;
}

}  // namespace faultyrank
