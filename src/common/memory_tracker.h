// Memory-footprint reporting for Table IV / Table V, which record the
// DRAM usage of the CSR graph. Structures expose an exact bytes()
// accounting; rss_bytes() additionally reads the process peak from
// /proc for whole-run numbers.
#pragma once

#include <cstdint>

namespace faultyrank {

/// Current resident-set size of this process in bytes (Linux), or 0 if
/// /proc is unavailable.
[[nodiscard]] std::uint64_t rss_bytes();

/// Lifetime peak resident-set size in bytes (VmHWM), or 0 if unknown.
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Formats a byte count as a short human-readable string ("26.5 GB").
[[nodiscard]] const char* format_bytes(std::uint64_t bytes, char* buf,
                                       int buf_size);

}  // namespace faultyrank
