// Shared test fixtures: the paper's Fig. 3 example graph, small
// populated Lustre and BeeGFS clusters, and random multigraphs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "beegfs/bee_cluster.h"
#include "common/random.h"
#include "graph/unified_graph.h"
#include "pfs/cluster.h"
#include "workload/namespace_gen.h"

namespace faultyrank::testing {

/// FIDs of the Fig. 3 example: directory a; files b, c under a; stripe
/// object d belonging to b.
struct Fig3Fids {
  Fid a{0x200000400, 1, 0};
  Fid b{0x200000400, 2, 0};
  Fid c{0x200000400, 3, 0};
  Fid d{0x100010000, 1, 0};
};

/// Builds the Fig. 3 metadata graph *with* its two injected
/// inconsistencies: c's LinkEA is missing and b's LOVEA slot for d is
/// missing (d still points back at b).
inline UnifiedGraph make_fig3_graph() {
  const Fig3Fids fids;
  PartialGraph mds;
  mds.server = "mds0";
  mds.add_vertex(fids.a, ObjectKind::kDirectory);
  mds.add_vertex(fids.b, ObjectKind::kFile);
  mds.add_vertex(fids.c, ObjectKind::kFile);
  mds.add_edge(fids.a, fids.b, EdgeKind::kDirent);
  mds.add_edge(fids.a, fids.c, EdgeKind::kDirent);
  mds.add_edge(fids.b, fids.a, EdgeKind::kLinkEa);
  // c → a LinkEA missing (inconsistency #1)
  // b → d LOVEA missing (inconsistency #2)

  PartialGraph oss;
  oss.server = "oss0";
  oss.add_vertex(fids.d, ObjectKind::kStripeObject);
  oss.add_edge(fids.d, fids.b, EdgeKind::kObjParent);

  const PartialGraph partials[] = {mds, oss};
  return UnifiedGraph::aggregate(partials);
}

/// The same four objects in a fully consistent state.
inline UnifiedGraph make_fig3_consistent_graph() {
  const Fig3Fids fids;
  PartialGraph mds;
  mds.server = "mds0";
  mds.add_vertex(fids.a, ObjectKind::kDirectory);
  mds.add_vertex(fids.b, ObjectKind::kFile);
  mds.add_vertex(fids.c, ObjectKind::kFile);
  mds.add_edge(fids.a, fids.b, EdgeKind::kDirent);
  mds.add_edge(fids.a, fids.c, EdgeKind::kDirent);
  mds.add_edge(fids.b, fids.a, EdgeKind::kLinkEa);
  mds.add_edge(fids.c, fids.a, EdgeKind::kLinkEa);
  mds.add_edge(fids.b, fids.d, EdgeKind::kLovEa);

  PartialGraph oss;
  oss.server = "oss0";
  oss.add_vertex(fids.d, ObjectKind::kStripeObject);
  oss.add_edge(fids.d, fids.b, EdgeKind::kObjParent);

  const PartialGraph partials[] = {mds, oss};
  return UnifiedGraph::aggregate(partials);
}

/// A small populated cluster: 4 OSTs, `files` files, deterministic.
inline LustreCluster make_populated_cluster(std::uint64_t files = 200,
                                            std::uint64_t seed = 42,
                                            std::size_t osts = 4) {
  LustreCluster cluster(osts, StripePolicy{64 * 1024, -1});
  NamespaceConfig config;
  config.file_count = files;
  config.seed = seed;
  populate_namespace(cluster, config);
  return cluster;
}

/// A small populated BeeGFS cluster: 4 storage targets, `files` files
/// under files / 8 directories, deterministic.
inline BeeCluster make_populated_bee_cluster(std::uint64_t seed,
                                             std::size_t files = 120) {
  BeeCluster cluster(4);
  Rng rng(seed);
  std::vector<std::string> dirs = {cluster.root()};
  for (std::size_t i = 0; i < files / 8; ++i) {
    dirs.push_back(
        cluster.mkdir(dirs[rng.below(dirs.size())], "d" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < files; ++i) {
    cluster.create_file(dirs[rng.below(dirs.size())],
                        "f" + std::to_string(i),
                        64 * 1024 + rng.below(3u << 20));
  }
  return cluster;
}

/// A random multigraph over `n` vertices with every adjacency-order
/// wrinkle: self-loops, repeated (u, v, kind) edges, one (u, v) pair
/// under several kinds, and point-back pairs so some edges pair up.
inline std::vector<GidEdge> make_random_multigraph(std::uint64_t seed,
                                                   std::size_t n,
                                                   std::size_t m) {
  Rng rng(seed);
  const auto vertex = [&] { return static_cast<Gid>(rng.below(n)); };
  const auto kind = [&] { return static_cast<EdgeKind>(rng.below(5)); };
  std::vector<GidEdge> edges;
  while (edges.size() < m) {
    const Gid u = vertex();
    const Gid v = vertex();
    const EdgeKind k = kind();
    switch (rng.below(6)) {
      case 0:
        edges.push_back({u, u, k});
        break;
      case 1:
        edges.push_back(edges.empty() ? GidEdge{u, v, k}
                                      : edges[rng.below(edges.size())]);
        break;
      case 2:
        for (std::uint64_t i = 0; i < 5; ++i) {
          edges.push_back({u, v, static_cast<EdgeKind>(i)});
        }
        break;
      case 3:
        edges.push_back({u, v, k});
        edges.push_back({v, u, paired_kind(k)});
        break;
      default:
        edges.push_back({u, v, k});
    }
  }
  return edges;
}

/// Visits every in-use inode of `image` for in-place corruption, in
/// slot order.
template <typename Visit>
void for_each_inode_mut(LdiskfsImage& image, Visit visit) {
  for (std::uint64_t ino = 1; ino <= image.inode_slots(); ++ino) {
    if (Inode* inode = image.find(ino)) visit(*inode);
  }
}

}  // namespace faultyrank::testing
