// EXPECT: clean
//
// Fixture stand-ins for the serdes stream types: the wire-schema
// extractor keys on the ByteWriter/ByteReader/RecordReader type names
// of parameters and locals, so these shells are all the serdes
// fixtures need.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fx {

class ByteWriter {
 public:
  template <typename T>
  void put(const T&) {}
  void put_string(const std::string&) {}
  void put_bytes(const std::vector<std::uint8_t>&) {}
};

class RecordReader {
 public:
  template <typename T>
  T get() {
    return T{};
  }
};

class ByteReader {
 public:
  template <typename T>
  T get() {
    return T{};
  }
  std::string get_string() { return {}; }
  std::vector<std::uint8_t> get_bytes() { return {}; }
  std::uint64_t bounded_count(std::uint64_t n, std::uint64_t) { return n; }
  RecordReader records(std::uint64_t, std::uint64_t) { return {}; }
  [[nodiscard]] std::uint64_t remaining() const { return 0; }
};

}  // namespace fx
