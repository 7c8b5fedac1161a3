#include "common/serdes.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace faultyrank {
namespace {

TEST(SerdesTest, ScalarRoundTrip) {
  ByteWriter w;
  w.put<std::uint8_t>(0x12);
  w.put<std::uint32_t>(0xdeadbeef);
  w.put<std::uint64_t>(0x0123456789abcdefULL);
  w.put<double>(3.25);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint8_t>(), 0x12);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(r.get<std::uint64_t>(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdesTest, StringRoundTrip) {
  ByteWriter w;
  w.put_string("");
  w.put_string("oss3");
  w.put_string(std::string(1000, 'x'));

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), "oss3");
  EXPECT_EQ(r.get_string(), std::string(1000, 'x'));
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdesTest, TruncatedScalarThrows) {
  ByteWriter w;
  w.put<std::uint16_t>(7);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.get<std::uint64_t>(), SerdesError);
}

TEST(SerdesTest, TruncatedStringThrows) {
  ByteWriter w;
  w.put<std::uint32_t>(100);  // claims 100 bytes, provides none
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_string(), SerdesError);
}

TEST(SerdesTest, RemainingTracksPosition) {
  ByteWriter w;
  w.put<std::uint32_t>(1);
  w.put<std::uint32_t>(2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.get<std::uint32_t>();
  EXPECT_EQ(r.remaining(), 4u);
  (void)r.get<std::uint32_t>();
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdesTest, TakeMovesBufferOut) {
  ByteWriter w;
  w.put<std::uint32_t>(42);
  const auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 4u);
}

TEST(SerdesTest, PutsAcrossAReserveBoundaryKeepEveryByte) {
  // Reserve room for 10 bytes, then write 4 + 8 + 1: the u64 straddles
  // the reserved end and the u8 lands in grown storage.
  ByteWriter w;
  w.reserve(10);
  EXPECT_EQ(w.size(), 0u);
  EXPECT_TRUE(w.bytes().empty());
  w.put<std::uint32_t>(0xdeadbeef);
  w.put<std::uint64_t>(0x0123456789abcdefULL);
  w.put<std::uint8_t>(0x5a);
  EXPECT_EQ(w.size(), 13u);
  EXPECT_EQ(w.bytes().size(), 13u);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(r.get<std::uint64_t>(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get<std::uint8_t>(), 0x5a);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(w.take().size(), 13u);
}

TEST(SerdesTest, ReserveBelowTheWrittenBytesKeepsThem) {
  ByteWriter w;
  w.put<std::uint64_t>(7);
  w.put<std::uint64_t>(8);
  w.reserve(4);  // smaller than what is written: changes nothing
  w.reserve(0);
  EXPECT_EQ(w.size(), 16u);
  w.put<std::uint16_t>(9);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint64_t>(), 7u);
  EXPECT_EQ(r.get<std::uint64_t>(), 8u);
  EXPECT_EQ(r.get<std::uint16_t>(), 9u);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdesTest, StringsAndBlobsAfterReserveRoundTrip) {
  // An exact reserve: every put fits, and take() hands over exactly the
  // bytes written, no reserved tail. The blob is a fixed-size byte
  // array, put and read back whole.
  const std::string name(300, 'n');
  const std::array<std::uint8_t, 5> blob = {1, 2, 3, 4, 5};
  ByteWriter w;
  w.reserve((4 + 0) + (4 + name.size()) + blob.size());
  w.put_string("");
  w.put_string(name);
  w.put(blob);
  const std::vector<std::uint8_t> bytes = w.take();
  EXPECT_EQ(bytes.size(), 4 + 4 + name.size() + blob.size());
  EXPECT_EQ(bytes.capacity(), bytes.size());
  ByteReader r(bytes);
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), name);
  EXPECT_EQ((r.get<std::array<std::uint8_t, 5>>()), blob);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdesTest, WriterIsReusableAfterTake) {
  ByteWriter w;
  w.reserve(64);
  w.put<std::uint32_t>(1);
  const auto first = w.take();
  EXPECT_EQ(first.size(), 4u);
  EXPECT_EQ(w.size(), 0u);
  EXPECT_TRUE(w.bytes().empty());
  EXPECT_TRUE(w.take().empty());
  w.put_string("again");
  w.put<std::uint8_t>(2);
  const auto second = w.take();
  ASSERT_EQ(second.size(), 4u + 5u + 1u);
  ByteReader r(second);
  EXPECT_EQ(r.get_string(), "again");
  EXPECT_EQ(r.get<std::uint8_t>(), 2);
  EXPECT_TRUE(r.exhausted());
  // The first buffer was handed over, not shared.
  ByteReader r1(first);
  EXPECT_EQ(r1.get<std::uint32_t>(), 1u);
}

TEST(SerdesTest, RecordsChecksTheWholeRunOnce) {
  ByteWriter w;
  for (std::uint32_t i = 0; i < 3; ++i) {
    w.put<std::uint32_t>(10 + i);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(i));
  }
  w.put<std::uint16_t>(0xbeef);
  ByteReader r(w.bytes());
  RecordReader run = r.records(3, 5);
  EXPECT_EQ(r.remaining(), 2u);  // stepped past the whole run
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(run.get<std::uint32_t>(), 10 + i);
    EXPECT_EQ(run.get<std::uint8_t>(), i);
  }
  EXPECT_EQ(r.get<std::uint16_t>(), 0xbeef);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdesTest, RecordsPastTheInputThrowWithoutAdvancing) {
  ByteWriter w;
  w.put<std::uint64_t>(1);
  w.put<std::uint64_t>(2);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.records(3, 8), SerdesError);  // one record short
  // A count whose product with the record size wraps 64 bits.
  EXPECT_THROW((void)r.records(0x2000000000000001ULL, 8), SerdesError);
  EXPECT_EQ(r.remaining(), 16u);
  RecordReader run = r.records(2, 8);
  EXPECT_EQ(run.get<std::uint64_t>(), 1u);
  EXPECT_EQ(run.get<std::uint64_t>(), 2u);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdesTest, MaxLengthStringClaimNearBufferEndThrows) {
  // A crafted length of UINT32_MAX next to the end of the buffer: a
  // `pos_ + len > size_` check could wrap on 32-bit size_t, so the
  // reader must compare against the remaining span instead.
  ByteWriter w;
  w.put<std::uint32_t>(0xffffffffu);  // string claims 4 GiB - 1
  w.put<std::uint8_t>(0x55);          // but only 1 byte follows
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_string(), SerdesError);
}

TEST(SerdesTest, ReadsExactlyToTheBoundary) {
  ByteWriter w;
  w.put<std::uint64_t>(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint64_t>(), 7u);
  // One past the end must throw, not read.
  EXPECT_THROW((void)r.get<std::uint8_t>(), SerdesError);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdesTest, FailedReadDoesNotAdvance) {
  ByteWriter w;
  w.put<std::uint16_t>(0xabcd);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.get<std::uint64_t>(), SerdesError);
  // The reader is still positioned at the start; the u16 read works.
  EXPECT_EQ(r.get<std::uint16_t>(), 0xabcd);
}

TEST(SerdesTest, TrivialStructRoundTripsThroughMemcpy) {
  struct Pod {
    std::uint32_t a;
    std::uint16_t b;
  };
  ByteWriter w;
  w.put(Pod{0x01020304u, 0x0506});
  ByteReader r(w.bytes());
  const auto pod = r.get<Pod>();
  EXPECT_EQ(pod.a, 0x01020304u);
  EXPECT_EQ(pod.b, 0x0506);
}

TEST(SerdesTest, UnalignedReadsAreSafe) {
  // A leading byte shifts every later field off its natural alignment;
  // memcpy-based reads must not care (UBSan would flag a cast-deref).
  ByteWriter w;
  w.put<std::uint8_t>(1);
  w.put<std::uint64_t>(0x1122334455667788ULL);
  w.put<double>(2.5);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint8_t>(), 1);
  EXPECT_EQ(r.get<std::uint64_t>(), 0x1122334455667788ULL);
  EXPECT_DOUBLE_EQ(r.get<double>(), 2.5);
}

}  // namespace
}  // namespace faultyrank
