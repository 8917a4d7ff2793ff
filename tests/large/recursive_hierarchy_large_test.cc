// Larger-scale recursive-hierarchy integration tests (CTest label
// "large": excluded from the tier-1 lane, run in a dedicated CI step).
//
// These pin the acceptance criteria of the recursive hierarchy on
// multi-hundred-node nested planted partitions: valid trees, quality
// against the planted fine scale, serial == pooled builds at scale and
// membership paths over every covered node.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/recursive_hierarchy.h"
#include "gen/nested_partition.h"
#include "metrics/omega_index.h"
#include "metrics/onmi.h"
#include "util/thread_pool.h"

namespace oca {
namespace {

NestedBenchmarkGraph LargeNested(uint64_t seed) {
  NestedPartitionOptions gen;
  gen.num_supers = 5;
  gen.subs_per_super = 3;
  gen.nodes_per_sub = 40;  // 600 nodes
  gen.p_sub = 0.6;
  gen.p_super = 0.12;
  gen.p_out = 0.05;
  gen.seed = seed;
  return GenerateNestedPartition(gen).value();
}

RecursiveHierarchyOptions LargeOptions(uint64_t seed) {
  RecursiveHierarchyOptions opt;
  opt.base.seed = seed;
  opt.base.halting.max_seeds = 1800;
  opt.base.halting.target_coverage = 0.98;
  opt.base.halting.stagnation_window = 150;
  return opt;
}

TEST(LargeRecursiveHierarchyTest, TreeIsValidAndLeavesMatchFineScale) {
  for (uint64_t seed : {3u, 7u, 11u}) {
    auto bench = LargeNested(seed);
    auto tree =
        BuildRecursiveHierarchy(bench.graph, LargeOptions(seed)).value();
    ASSERT_FALSE(tree.roots.empty()) << "seed " << seed;
    for (const RecursiveCommunity& node : tree.nodes) {
      if (node.parent == RecursiveHierarchy::kNoParent) continue;
      const Community& parent = tree.nodes[node.parent].community;
      EXPECT_TRUE(std::includes(parent.begin(), parent.end(),
                                node.community.begin(),
                                node.community.end()))
          << "seed " << seed;
    }
    Cover leaves = tree.LeafCover();
    double onmi = Onmi(leaves, bench.sub_truth,
                       bench.graph.num_nodes()).value();
    double omega = OmegaIndex(leaves, bench.sub_truth,
                              bench.graph.num_nodes()).value();
    EXPECT_GT(onmi, 0.9) << "seed " << seed << ": " << leaves.Summary();
    EXPECT_GT(omega, 0.8) << "seed " << seed;
  }
}

TEST(LargeRecursiveHierarchyTest, ParallelBuildIsByteIdenticalAtScale) {
  // The multi-hundred-node version of the serial-vs-parallel pin: deep
  // enough that sibling subtrees genuinely overlap in flight. The
  // worker count follows the CI thread matrix via OCA_THREADS
  // (default 4 locally).
  const size_t threads = ThreadCountFromEnv("OCA_THREADS", 4);
  for (uint64_t seed : {3u, 7u}) {
    auto bench = LargeNested(seed);
    auto serial =
        BuildRecursiveHierarchy(bench.graph, LargeOptions(seed)).value();
    RecursiveHierarchyOptions pooled_opt = LargeOptions(seed);
    pooled_opt.num_threads = threads;
    auto pooled =
        BuildRecursiveHierarchy(bench.graph, pooled_opt).value();

    ASSERT_EQ(serial.nodes.size(), pooled.nodes.size()) << "seed " << seed;
    for (size_t i = 0; i < serial.nodes.size(); ++i) {
      EXPECT_EQ(serial.nodes[i].community, pooled.nodes[i].community)
          << "seed " << seed << " node " << i;
      EXPECT_EQ(serial.nodes[i].stop_reason, pooled.nodes[i].stop_reason)
          << "seed " << seed << " node " << i;
      EXPECT_EQ(serial.nodes[i].subgraph_c, pooled.nodes[i].subgraph_c)
          << "seed " << seed << " node " << i;
      EXPECT_EQ(serial.nodes[i].spectral_iterations,
                pooled.nodes[i].spectral_iterations)
          << "seed " << seed << " node " << i;
    }
    EXPECT_EQ(serial.Digest(), pooled.Digest())
        << "seed " << seed << " threads " << threads;
    EXPECT_EQ(pooled.scheduling.num_workers, threads);
    EXPECT_EQ(pooled.scheduling.tasks_run, pooled.nodes.size());
  }
}

TEST(LargeRecursiveHierarchyTest, MembershipPathsCoverEveryCoveredNode) {
  auto bench = LargeNested(3);
  auto tree = BuildRecursiveHierarchy(bench.graph, LargeOptions(3)).value();
  auto covered = [&](NodeId v) {
    for (uint32_t root : tree.roots) {
      const Community& c = tree.nodes[root].community;
      if (std::binary_search(c.begin(), c.end(), v)) return true;
    }
    return false;
  };
  for (NodeId v = 0; v < bench.graph.num_nodes(); ++v) {
    auto paths = tree.MembershipPaths(v);
    EXPECT_EQ(!paths.empty(), covered(v)) << "node " << v;
  }
}

}  // namespace
}  // namespace oca
