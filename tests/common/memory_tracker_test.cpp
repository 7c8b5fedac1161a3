#include "common/memory_tracker.h"

#include <gtest/gtest.h>

#include <string>

namespace faultyrank {
namespace {

TEST(MemoryTrackerTest, RssIsPositiveOnLinux) {
  EXPECT_GT(rss_bytes(), 0u);
  EXPECT_GE(peak_rss_bytes(), rss_bytes() / 2);  // peak >= a sane floor
}

TEST(MemoryTrackerTest, FormatBytesPicksUnits) {
  char buf[32];
  EXPECT_EQ(std::string(format_bytes(512, buf, sizeof(buf))), "512 B");
  EXPECT_EQ(std::string(format_bytes(2048, buf, sizeof(buf))), "2.00 KB");
  EXPECT_EQ(std::string(format_bytes(5 * (1ull << 20), buf, sizeof(buf))),
            "5.00 MB");
  EXPECT_EQ(std::string(format_bytes(3 * (1ull << 30), buf, sizeof(buf))),
            "3.00 GB");
}

}  // namespace
}  // namespace faultyrank
