// Little binary serialization helpers for partial-graph transfer and
// edge-list persistence. Fixed-width little-endian encoding; readers
// validate framing and throw SerdesError on corruption/truncation.
//
// Hardened for hostile input: bounds checks are written as
// `need > size_ - pos_` (never `pos_ + need > size_`, whose left side
// can wrap on a crafted length), reads and writes go through memcpy
// only (no reinterpret_cast type punning, no unaligned dereference),
// and both directions static_assert trivial copyability so a
// non-trivial type fails with a readable message instead of deep
// template errors.
//
// Sized for bulk records (DESIGN.md §7). The writer puts each field at
// a cursor into storage grown ahead of it, so a put costs one capacity
// check and one memcpy, and reserve() sizes that storage once when the
// caller knows the total. The reader checks a run of fixed-size records
// once, as a whole (ByteReader::records), and reads its fields through
// a RecordReader without a check per field.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace faultyrank {

class SerdesError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only byte sink. bytes(), size() and take() cover exactly the
/// bytes written, however far the storage was grown ahead.
class ByteWriter {
 public:
  /// Grows the storage to hold at least `total` bytes in all, so puts
  /// up to that size never reallocate. Never shrinks below the bytes
  /// already written.
  void reserve(std::size_t total) {
    if (total > storage_.size()) storage_.resize(total);
  }

  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteWriter::put requires a trivially copyable type");
    std::memcpy(claim(sizeof(T)), &value, sizeof(T));
  }

  void put_string(const std::string& s) {
    if (s.size() > UINT32_MAX) {
      throw SerdesError("string too long to encode: " +
                        std::to_string(s.size()) + " bytes");
    }
    put(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
  }

  /// The bytes written so far; valid until the next put or take().
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {storage_.data(), size_};
  }
  /// Hands the written bytes over and leaves the writer empty, ready
  /// for reuse.
  [[nodiscard]] std::vector<std::uint8_t> take() {
    storage_.resize(size_);
    size_ = 0;
    return std::exchange(storage_, {});
  }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  /// Moves the cursor past `n` bytes and returns where they go. Storage
  /// that cannot hold them grows to at least twice its size.
  std::uint8_t* claim(std::size_t n) {
    if (n > storage_.size() - size_) {
      storage_.resize(std::max(storage_.size() * 2, size_ + n));
    }
    std::uint8_t* at = storage_.data() + size_;
    size_ += n;
    return at;
  }

  void append(const void* data, std::size_t n) {
    if (n != 0) std::memcpy(claim(n), data, n);
  }

  std::vector<std::uint8_t> storage_;  ///< [0, size_) written; rest ahead
  std::size_t size_ = 0;
};

/// Field reads over a run of fixed-size records that
/// ByteReader::records bounds-checked once, as a whole. get() checks
/// nothing itself: a decoder reads exactly one record's fields per
/// record, which fr_analyze's serdes-asymmetry pass holds against the
/// writer of the format.
class RecordReader {
 public:
  /// An empty run: nothing may be read from it.
  RecordReader() = default;

  template <typename T>
  [[nodiscard]] T get() noexcept {
    static_assert(std::is_trivially_copyable_v<T>,
                  "RecordReader::get requires a trivially copyable type");
    T value;
    std::memcpy(&value, at_, sizeof(T));
    at_ += sizeof(T);
    return value;
  }

 private:
  friend class ByteReader;
  explicit RecordReader(const std::uint8_t* at) noexcept : at_(at) {}

  const std::uint8_t* at_ = nullptr;
};

/// Sequential byte source over a borrowed buffer. Invariant:
/// pos_ <= size_, so `size_ - pos_` below never underflows.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(std::span<const std::uint8_t> bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  template <typename T>
  [[nodiscard]] T get() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteReader::get requires a trivially copyable type");
    if (sizeof(T) > size_ - pos_) {
      throw SerdesError("truncated buffer: need " + std::to_string(sizeof(T)) +
                        " bytes at offset " + std::to_string(pos_));
    }
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  [[nodiscard]] std::string get_string() {
    const auto len = get<std::uint32_t>();
    const std::uint8_t* at = checked_span(len, "string");
    return {reinterpret_cast<const char*>(at), len};
  }

  [[nodiscard]] bool exhausted() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  /// Validates a deserialized element count against the bytes left,
  /// given a lower bound on the encoded size of one element. A hostile
  /// length field cannot then drive a resize()/reserve() beyond the
  /// input's own size — the classic decompression-bomb shape.
  [[nodiscard]] std::uint64_t bounded_count(std::uint64_t count,
                                            std::size_t min_element_bytes) {
    const std::size_t unit = min_element_bytes == 0 ? 1 : min_element_bytes;
    if (count > remaining() / unit) {
      throw SerdesError("implausible element count " + std::to_string(count) +
                        " with " + std::to_string(remaining()) +
                        " bytes remaining");
    }
    return count;
  }

  /// Checks that `count` records of `record_bytes` each follow, as
  /// bounded_count does, then steps past all of them and returns a
  /// RecordReader over them: one bounds check for the whole run.
  [[nodiscard]] RecordReader records(std::uint64_t count,
                                     std::size_t record_bytes) {
    const std::uint64_t n = bounded_count(count, record_bytes);
    const RecordReader run(data_ + pos_);
    pos_ += static_cast<std::size_t>(n) * record_bytes;
    return run;
  }

 private:
  /// Validates a length prefix against the remaining input and advances
  /// past it — BEFORE any allocation, so a hostile prefix (e.g.
  /// 0xFFFFFFFF on a 12-byte buffer) throws instead of driving a
  /// multi-gigabyte std::string/std::vector reserve.
  [[nodiscard]] const std::uint8_t* checked_span(std::uint64_t len,
                                                 const char* what) {
    if (len > size_ - pos_) {
      throw SerdesError(std::string("truncated ") + what + ": length prefix " +
                        std::to_string(len) + " exceeds the " +
                        std::to_string(size_ - pos_) +
                        " bytes remaining at offset " + std::to_string(pos_));
    }
    const std::uint8_t* at = data_ + pos_;
    pos_ += static_cast<std::size_t>(len);
    return at;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace faultyrank
