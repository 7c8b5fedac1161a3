// Cluster image persistence.
//
// A real offline checker runs against unmounted on-disk images; this
// module gives the simulated cluster the same lifecycle: dump every
// server image to a binary snapshot ("unmount"), load it back later
// ("attach"), and run scanners/checkers against the loaded copy.
// Snapshots round-trip every EA field bit-exactly, including corrupted
// ones — snapshotting a broken cluster preserves the breakage.
#pragma once

#include <string>

#include "pfs/cluster.h"

namespace faultyrank {

class PersistenceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serializes the full cluster state (every MDT and OST image, FID
/// allocator cursors, stripe policy) into a byte buffer.
[[nodiscard]] std::vector<std::uint8_t> serialize_cluster(
    const LustreCluster& cluster);

/// Reconstructs a cluster from serialize_cluster output.
[[nodiscard]] LustreCluster deserialize_cluster(
    const std::vector<std::uint8_t>& bytes);

/// Serializes a single server image (the per-image framing used inside
/// cluster snapshots, without the cluster envelope).
[[nodiscard]] std::vector<std::uint8_t> serialize_image(
    const LdiskfsImage& image);

/// Reconstructs a single server image. Like deserialize_cluster, every
/// malformed input — truncation, bit flips, bomb lengths — surfaces as
/// PersistenceError; no other exception type may escape.
[[nodiscard]] LdiskfsImage deserialize_image(
    const std::vector<std::uint8_t>& bytes);

/// Writes the full cluster state to `path`. Crash-safe: the bytes land
/// in a temporary file in the same directory which is renamed over
/// `path` only after a complete write, so a crash mid-save leaves the
/// previous snapshot intact rather than a torn one.
void save_cluster(const LustreCluster& cluster, const std::string& path);

/// Loads a snapshot written by save_cluster.
[[nodiscard]] LustreCluster load_cluster(const std::string& path);

/// Atomically replaces `path` with `bytes` (write `path + ".tmp"`,
/// flush, rename). Shared by the snapshot writer and the CLI's undo
/// file — both must survive a crash mid-save without corrupting the
/// existing file.
void atomic_write_file(const std::vector<std::uint8_t>& bytes,
                       const std::string& path);

/// Reads a whole file into memory. Throws PersistenceError when the
/// file cannot be opened or fully read.
[[nodiscard]] std::vector<std::uint8_t> read_file_bytes(
    const std::string& path);

}  // namespace faultyrank
