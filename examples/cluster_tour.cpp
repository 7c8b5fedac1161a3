// A guided tour of the simulated Lustre substrate: build a cluster by
// hand, inspect the redundant metadata web (Fig. 1 of the paper) at
// the raw-image level, scan it into partial graphs, and aggregate them
// into the unified metadata graph.
//
//   $ ./examples/cluster_tour
#include <cstdio>

#include "aggregator/aggregator.h"
#include "scanner/scanner.h"
#include "pfs/cluster.h"

using namespace faultyrank;

int main() {
  // 1 MDS + 3 OSTs; 64 KB stripes across every OST.
  LustreCluster cluster(3, StripePolicy{64 * 1024, -1});

  std::printf("== namespace operations ==\n");
  const Fid projects = cluster.mkdir(cluster.root(), "projects");
  const Fid climate = cluster.mkdir(projects, "climate");
  const Fid run0 = cluster.create_file(climate, "run0.dat", 200 * 1024);
  const Fid notes = cluster.create_file(projects, "notes.txt", 4 * 1024);
  std::printf("/projects           -> %s\n", projects.to_string().c_str());
  std::printf("/projects/climate   -> %s\n", climate.to_string().c_str());
  std::printf("/projects/climate/run0.dat -> %s\n", run0.to_string().c_str());
  std::printf("/projects/notes.txt -> %s\n", notes.to_string().c_str());
  std::printf("path resolution: resolve(\"/projects/climate/run0.dat\") == "
              "%s\n\n",
              (cluster.resolve("/projects/climate/run0.dat") == run0)
                  ? "ok"
                  : "BROKEN");

  std::printf("== the redundant metadata web (paper Fig. 1) ==\n");
  const Inode* file = cluster.stat(run0);
  std::printf("MDT inode #%lu for run0.dat:\n",
              static_cast<unsigned long>(file->ino));
  std::printf("  LMA (own fid):  %s\n", file->lma_fid.to_string().c_str());
  for (const auto& link : file->link_ea) {
    std::printf("  LinkEA:         parent=%s name='%s'\n",
                link.parent.to_string().c_str(), link.name.c_str());
  }
  std::printf("  LOVEA: stripe_size=%u stripe_count=%d\n",
              file->lov_ea->stripe_size, file->lov_ea->stripe_count);
  for (std::size_t k = 0; k < file->lov_ea->stripes.size(); ++k) {
    const LovEaEntry& slot = file->lov_ea->stripes[k];
    std::printf("    slot %zu -> %s on OST%u\n", k,
                slot.stripe.to_string().c_str(), slot.ost_index);
    const Inode* object =
        cluster.ost(slot.ost_index).image.find_by_fid(slot.stripe);
    std::printf("      OST object #%lu: filter_fid={parent=%s, stripe=%u}, "
                "%lu bytes\n",
                static_cast<unsigned long>(object->ino),
                object->filter_fid->parent.to_string().c_str(),
                object->filter_fid->stripe_index,
                static_cast<unsigned long>(object->size_bytes));
  }
  const Inode* parent_dir = cluster.stat(climate);
  std::printf("MDT directory 'climate' DIRENT block:\n");
  for (const auto& entry : parent_dir->dirents) {
    std::printf("  '%s' -> fid=%s ino=%lu\n", entry.name.c_str(),
                entry.fid.to_string().c_str(),
                static_cast<unsigned long>(entry.ino));
  }

  std::printf("\n== raw scan -> partial graphs -> unified graph ==\n");
  ClusterScan scan = scan_cluster(cluster);
  for (const ScanResult& result : scan.results) {
    std::printf("%-6s: %4zu vertices %4zu edges  (%lu inodes, "
                "%.2f ms simulated disk)\n",
                result.graph.server.c_str(), result.graph.vertices.size(),
                result.graph.edges.size(),
                static_cast<unsigned long>(result.inodes_scanned),
                result.sim_seconds * 1e3);
  }
  const AggregationResult agg = aggregate(scan.results);
  std::printf("unified graph: %lu vertices, %lu edges, %zu unpaired "
              "(healthy = 0), %lu bytes over the wire\n",
              static_cast<unsigned long>(agg.graph.vertex_count()),
              static_cast<unsigned long>(agg.graph.edge_count()),
              agg.graph.unpaired_edges().size(),
              static_cast<unsigned long>(agg.transferred_bytes));

  std::printf("\n== teardown semantics ==\n");
  cluster.unlink(climate, "run0.dat");
  std::printf("after unlink(run0.dat): MDT inodes=%lu, OST objects=%lu\n",
              static_cast<unsigned long>(cluster.mdt_inodes_used()),
              static_cast<unsigned long>(cluster.total_ost_objects()));
  return 0;
}
