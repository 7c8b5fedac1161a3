#include "beegfs/bee_scanner.h"

#include <algorithm>

namespace faultyrank {

Fid chunk_identity(std::uint32_t target, const std::string& name) {
  if (const auto owner = fid_from_entry_id(name)) {
    return Fid{kBeeChunkSeqBase + target, owner->oid, 0};
  }
  // Unparseable chunk name: quarantine identity derived from the bytes.
  const auto hash = static_cast<std::uint32_t>(
      std::hash<std::string>{}(name) & 0xffffffffu);
  return Fid{kBeeQuarantineSeqBase + target, hash, 0};
}

ScanResult scan_bee_meta(const BeeMetaServer& meta, const DiskModel& disk) {
  ScanResult result;
  result.graph.server = "bee-meta";
  result.local_to_mds = true;

  std::uint64_t dentry_files = 0;
  for (const BeeMetaInode& inode : meta.inodes) {
    if (!inode.in_use) continue;
    ++result.inodes_scanned;
    const auto self = fid_from_entry_id(inode.entry_id);
    if (!self) continue;  // unreadable id: nothing to key the vertex on
    const ObjectKind kind = inode.type == BeeEntryType::kDirectory
                                ? ObjectKind::kDirectory
                                : ObjectKind::kFile;
    result.graph.add_vertex(*self, kind);

    if (const auto parent = fid_from_entry_id(inode.parent_entry_id)) {
      result.graph.add_edge(*self, *parent, EdgeKind::kLinkEa);
    }
    if (inode.type == BeeEntryType::kDirectory) {
      const auto dentries = meta.dentries.find(inode.entry_id);
      if (dentries != meta.dentries.end()) {
        for (const auto& [name, child_id] : dentries->second) {
          ++dentry_files;
          if (const auto child = fid_from_entry_id(child_id)) {
            result.graph.add_edge(*self, *child, EdgeKind::kDirent);
          }
        }
      }
    } else if (inode.pattern.has_value()) {
      // The layout references "my chunk on target t" by construction.
      for (const std::uint32_t target : inode.pattern->targets) {
        result.graph.add_edge(*self,
                              chunk_identity(target, inode.entry_id),
                              EdgeKind::kLovEa);
      }
    }
  }

  // Cost model: metadata is many small files — every inode file and
  // dentry file is a random read.
  result.sim_seconds =
      disk.random_reads(result.inodes_scanned + dentry_files, 512);
  return result;
}

ScanResult scan_bee_target(const BeeStorageTarget& target,
                           const DiskModel& disk) {
  ScanResult result;
  result.graph.server = "bee-storage" + std::to_string(target.index);

  for (const BeeChunkFile& chunk : target.chunks) {
    if (!chunk.in_use) continue;
    ++result.inodes_scanned;
    result.graph.add_vertex(chunk_identity(target.index, chunk.name),
                            ObjectKind::kStripeObject);
    if (const auto owner = fid_from_entry_id(chunk.xattr_origin)) {
      result.graph.add_edge(chunk_identity(target.index, chunk.name), *owner,
                            EdgeKind::kObjParent);
    }
  }
  result.sim_seconds = disk.random_reads(result.inodes_scanned, 512);
  return result;
}

ClusterScan scan_bee_cluster(const BeeCluster& cluster,
                             const DiskModel& meta_disk,
                             const DiskModel& target_disk) {
  ClusterScan scan;
  scan.results.reserve(1 + cluster.targets().size());
  scan.results.push_back(scan_bee_meta(cluster.meta(), meta_disk));
  for (const BeeStorageTarget& target : cluster.targets()) {
    scan.results.push_back(scan_bee_target(target, target_disk));
  }
  for (const ScanResult& result : scan.results) {
    // Each server scans its own disks concurrently; the cluster-level
    // virtual scan time is the slowest server.
    scan.sim_seconds = std::max(scan.sim_seconds, result.sim_seconds);
    scan.inodes_scanned += result.inodes_scanned;
  }
  return scan;
}

}  // namespace faultyrank
