// BeeGFS scanner: walks the meta server's inode files + dentry
// directories and every storage target's chunk directories, emitting
// the same ScanResults the Lustre scanner produces — the point where
// the two filesystems converge onto the shared FaultyRank core (paper
// §VI). The meta server hosts the aggregator, so its partial graph is
// local; every storage target's crosses the wire.
//
// Vertex identities:
//   * namespace entries — the FID encoded in the entry-id string;
//   * chunks — {kBeeChunkSeqBase + target, oid-of-the-entry-the-chunk-
//     file-is-named-after}: a chunk's referencable id IS its file name
//     on that target, so renaming a chunk file changes its identity
//     exactly like corrupting a Lustre object's LMA.
//
// Edge extraction:
//   dir  → child  kDirent    (dentry file)
//   child→ dir    kLinkEa    (parent xattr)
//   file → chunk  kLovEa     (stripe-pattern target list)
//   chunk→ file   kObjParent (origin xattr)
#pragma once

#include "beegfs/bee_cluster.h"
#include "common/sim_clock.h"
#include "scanner/scanner.h"

namespace faultyrank {

/// The chunk-vertex identity for a chunk file named `name` on `target`.
/// Unparseable names (corrupted renames) hash into a quarantine
/// sequence so the object still appears in the graph.
[[nodiscard]] Fid chunk_identity(std::uint32_t target,
                                 const std::string& name);

/// Scans the meta server; inodes_scanned counts its in-use entries.
[[nodiscard]] ScanResult scan_bee_meta(const BeeMetaServer& meta,
                                       const DiskModel& disk = DiskModel::ssd());

/// Scans one storage target; inodes_scanned counts its in-use chunks.
[[nodiscard]] ScanResult scan_bee_target(const BeeStorageTarget& target,
                                         const DiskModel& disk = DiskModel::hdd());

/// Scans every server: results[0] is the meta server, then the
/// targets in order.
[[nodiscard]] ClusterScan scan_bee_cluster(
    const BeeCluster& cluster, const DiskModel& meta_disk = DiskModel::ssd(),
    const DiskModel& target_disk = DiskModel::hdd());

}  // namespace faultyrank
