#include "core/recursive_hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/nested_partition.h"
#include "spectral/spectral_engine.h"
#include "testing/test_graphs.h"

namespace oca {
namespace {

using testing::TwoCliquesBridge;

// The regime the recursive hierarchy is built for: strong blocks,
// moderate super glue, and enough cross-super noise that the top-level
// run mixes scales — coarse communities then split into their blocks.
NestedBenchmarkGraph MixedScaleGraph(uint64_t seed = 7) {
  NestedPartitionOptions gen;
  gen.num_supers = 4;
  gen.subs_per_super = 3;
  gen.nodes_per_sub = 20;
  gen.p_sub = 0.85;
  gen.p_super = 0.15;
  gen.p_out = 0.08;
  gen.seed = seed;
  return GenerateNestedPartition(gen).value();
}

RecursiveHierarchyOptions RecursiveOptions(uint64_t seed = 7) {
  RecursiveHierarchyOptions opt;
  opt.base.seed = seed;
  opt.base.halting.max_seeds = 720;
  opt.base.halting.target_coverage = 0.98;
  opt.base.halting.stagnation_window = 150;
  return opt;
}

TEST(RecursiveHierarchyTest, ProducesValidTreeOnNestedPartition) {
  auto bench = MixedScaleGraph();
  auto tree = BuildRecursiveHierarchy(bench.graph, RecursiveOptions())
                  .value();

  ASSERT_FALSE(tree.nodes.empty());
  ASSERT_FALSE(tree.roots.empty());
  size_t splits = 0;
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    const RecursiveCommunity& node = tree.nodes[i];
    // Original ids round-trip: sorted, duplicate-free, in range.
    ASSERT_FALSE(node.community.empty());
    EXPECT_TRUE(std::is_sorted(node.community.begin(),
                               node.community.end()));
    EXPECT_TRUE(std::adjacent_find(node.community.begin(),
                                   node.community.end()) ==
                node.community.end());
    EXPECT_LT(node.community.back(), bench.graph.num_nodes());
    EXPECT_FALSE(node.stop_reason.empty());

    if (node.parent == RecursiveHierarchy::kNoParent) {
      EXPECT_EQ(node.depth, 0u);
    } else {
      const RecursiveCommunity& parent = tree.nodes[node.parent];
      EXPECT_EQ(node.depth, parent.depth + 1);
      // Children's node sets are subsets of their parent's.
      EXPECT_TRUE(std::includes(parent.community.begin(),
                                parent.community.end(),
                                node.community.begin(),
                                node.community.end()));
      EXPECT_LT(node.community.size(), parent.community.size());
    }
    if (node.stop_reason == "split") {
      ++splits;
      ASSERT_FALSE(node.children.empty());
      for (uint32_t child : node.children) {
        EXPECT_EQ(tree.nodes[child].parent, i);
      }
    } else {
      EXPECT_TRUE(node.children.empty());
    }
  }
  // This pinned seed genuinely recurses (verified empirically): mixed
  // top-level scales split into the planted 20-blocks.
  EXPECT_GE(splits, 1u);
  EXPECT_GE(tree.max_depth_reached, 1u);
  EXPECT_EQ(tree.roots.size(),
            static_cast<size_t>(
                std::count_if(tree.nodes.begin(), tree.nodes.end(),
                              [](const RecursiveCommunity& n) {
                                return n.parent ==
                                       RecursiveHierarchy::kNoParent;
                              })));
}

TEST(RecursiveHierarchyTest, LambdaMinContractHoldsThroughout) {
  auto bench = MixedScaleGraph();
  auto tree = BuildRecursiveHierarchy(bench.graph, RecursiveOptions())
                  .value();
  // The root run resolves c through the build's engine.
  EXPECT_LT(tree.root_stats.lambda_min, 0.0);
  EXPECT_GT(tree.root_stats.coupling_constant, 0.0);
  for (const RecursiveCommunity& node : tree.nodes) {
    if (node.stop_reason == "split" || node.stop_reason == "stable" ||
        node.stop_reason == "no_communities") {
      EXPECT_LT(node.subgraph_lambda_min, 0.0);
      EXPECT_GT(node.subgraph_c, 0.0);
      EXPECT_LE(node.subgraph_c, kMaxCouplingConstant);
      // Each subgraph run resolved c through its expansion's engine, so
      // its full stats obey the same contract.
      EXPECT_LT(node.split_stats.lambda_min, 0.0);
      EXPECT_DOUBLE_EQ(node.split_stats.coupling_constant,
                       node.subgraph_c);
      // A subgraph is denser than the graph it came from, so its
      // lambda_min is less negative and its admissible c larger.
      EXPECT_GT(node.subgraph_c, tree.root_stats.coupling_constant);
    } else {
      EXPECT_EQ(node.subgraph_c, 0.0);
      EXPECT_EQ(node.spectral_iterations, 0u);
    }
  }
}

// Every c of the tree is resolved by the RunOca that uses it, so the
// run stats record the real solve: its Lanczos steps, not the 0 of an
// engine cache hit, and the same c and lambda_min as the node.
TEST(RecursiveHierarchyTest, RunStatsRecordEverySolve) {
  auto bench = MixedScaleGraph();
  for (size_t threads : {size_t{0}, size_t{2}}) {
    RecursiveHierarchyOptions opt = RecursiveOptions();
    opt.num_threads = threads;
    auto tree = BuildRecursiveHierarchy(bench.graph, opt).value();
    EXPECT_GT(tree.root_stats.spectral_iterations, 0u) << threads;
    size_t solved = 0;
    for (const RecursiveCommunity& node : tree.nodes) {
      if (!node.SubgraphSolved()) continue;
      ++solved;
      EXPECT_GT(node.spectral_iterations, 0u);
      EXPECT_EQ(node.split_stats.spectral_iterations,
                node.spectral_iterations);
      EXPECT_EQ(node.split_stats.coupling_constant, node.subgraph_c);
      EXPECT_EQ(node.split_stats.lambda_min, node.subgraph_lambda_min);
    }
    EXPECT_GT(solved, 0u) << "the pinned seed must solve subgraphs";
  }
}

TEST(RecursiveHierarchyTest, MembershipPathsAreConsistent) {
  auto bench = MixedScaleGraph();
  auto tree = BuildRecursiveHierarchy(bench.graph, RecursiveOptions())
                  .value();
  size_t nodes_with_paths = 0;
  size_t deep_paths = 0;
  for (NodeId v = 0; v < bench.graph.num_nodes(); ++v) {
    auto paths = tree.MembershipPaths(v);
    if (!paths.empty()) ++nodes_with_paths;
    for (const auto& path : paths) {
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(tree.nodes[path.front()].parent,
                RecursiveHierarchy::kNoParent);
      for (size_t j = 0; j < path.size(); ++j) {
        const Community& c = tree.nodes[path[j]].community;
        EXPECT_TRUE(std::binary_search(c.begin(), c.end(), v));
        if (j > 0) {
          EXPECT_EQ(tree.nodes[path[j]].parent, path[j - 1]);
        }
      }
      // The chain ends where membership ends: no child of the last node
      // contains v.
      for (uint32_t child : tree.nodes[path.back()].children) {
        const Community& c = tree.nodes[child].community;
        EXPECT_FALSE(std::binary_search(c.begin(), c.end(), v));
      }
      if (path.size() > 1) ++deep_paths;
    }
  }
  EXPECT_GT(nodes_with_paths, bench.graph.num_nodes() / 2);
  EXPECT_GT(deep_paths, 0u) << "the pinned seed splits, so some node "
                               "must sit below a root";
}

TEST(RecursiveHierarchyTest, LevelSummariesAddUp) {
  auto bench = MixedScaleGraph();
  auto tree = BuildRecursiveHierarchy(bench.graph, RecursiveOptions())
                  .value();
  auto levels = tree.LevelSummaries();
  ASSERT_EQ(levels.size(), tree.max_depth_reached + 1);
  size_t communities = 0, solves = 0, iterations = 0;
  for (const auto& level : levels) {
    communities += level.communities;
    solves += level.subgraph_solves;
    iterations += level.spectral_iterations;
  }
  EXPECT_EQ(communities, tree.nodes.size());
  EXPECT_EQ(solves, tree.chain.subgraph_solves);
  EXPECT_EQ(iterations, tree.chain.total_iterations);
}

TEST(RecursiveHierarchyTest, SmallCommunitiesAreMinSizeLeaves) {
  Graph g = TwoCliquesBridge();
  RecursiveHierarchyOptions opt = RecursiveOptions(42);
  opt.base.halting.max_seeds = 100;
  auto tree = BuildRecursiveHierarchy(g, opt).value();
  ASSERT_EQ(tree.roots.size(), 2u);
  for (uint32_t root : tree.roots) {
    EXPECT_EQ(tree.nodes[root].stop_reason, "min_size");
    EXPECT_EQ(tree.nodes[root].community.size(), 5u);
  }
  EXPECT_EQ(tree.chain.subgraph_solves, 0u);
}

TEST(RecursiveHierarchyTest, CliqueCommunitiesAreDensityLeaves) {
  Graph g = TwoCliquesBridge();
  RecursiveHierarchyOptions opt = RecursiveOptions(42);
  opt.base.halting.max_seeds = 100;
  opt.min_split_size = 4;  // let the 5-cliques through the size gate
  auto tree = BuildRecursiveHierarchy(g, opt).value();
  ASSERT_EQ(tree.roots.size(), 2u);
  for (uint32_t root : tree.roots) {
    EXPECT_EQ(tree.nodes[root].stop_reason, "density");
  }
}

TEST(RecursiveHierarchyTest, MaxDepthStopsTheDescent) {
  auto bench = MixedScaleGraph();
  RecursiveHierarchyOptions opt = RecursiveOptions();
  opt.max_depth = 0;
  auto tree = BuildRecursiveHierarchy(bench.graph, opt).value();
  EXPECT_EQ(tree.max_depth_reached, 0u);
  for (const RecursiveCommunity& node : tree.nodes) {
    EXPECT_TRUE(node.stop_reason == "max_depth" ||
                node.stop_reason == "min_size")
        << node.stop_reason;
  }
}

TEST(RecursiveHierarchyTest, DeterministicPerSeed) {
  auto bench = MixedScaleGraph();
  auto a = BuildRecursiveHierarchy(bench.graph, RecursiveOptions())
               .value();
  auto b = BuildRecursiveHierarchy(bench.graph, RecursiveOptions())
               .value();
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].community, b.nodes[i].community);
    EXPECT_EQ(a.nodes[i].stop_reason, b.nodes[i].stop_reason);
    EXPECT_EQ(a.nodes[i].spectral_iterations,
              b.nodes[i].spectral_iterations);
  }
}

// Every run of a serial tree, the top-level one and each subgraph run,
// climbs exactly the seeds it records, although subgraph runs halt a
// few seeds into their first batch.
TEST(RecursiveHierarchyTest, SerialTreeClimbsOnlyRecordedSeeds) {
  auto bench = MixedScaleGraph();
  auto tree = BuildRecursiveHierarchy(bench.graph, RecursiveOptions())
                  .value();
  size_t climbs = tree.root_stats.climbs;
  size_t seeds = tree.root_stats.seeds_expanded;
  size_t subgraph_runs = 0;
  for (const RecursiveCommunity& node : tree.nodes) {
    climbs += node.split_stats.climbs;
    seeds += node.split_stats.seeds_expanded;
    if (node.SubgraphSolved()) ++subgraph_runs;
  }
  ASSERT_GT(subgraph_runs, 0u);
  EXPECT_GT(seeds, 0u);
  EXPECT_EQ(climbs, seeds);
}

TEST(RecursiveHierarchyTest, InvalidOptionsError) {
  Graph g = TwoCliquesBridge();
  RecursiveHierarchyOptions opt = RecursiveOptions();
  opt.base.coupling_constant = 0.5;
  EXPECT_TRUE(BuildRecursiveHierarchy(g, opt).status().IsInvalidArgument());

  opt = RecursiveOptions();
  opt.min_split_size = 1;
  EXPECT_TRUE(BuildRecursiveHierarchy(g, opt).status().IsInvalidArgument());

  opt = RecursiveOptions();
  opt.max_split_density = 0.0;
  EXPECT_TRUE(BuildRecursiveHierarchy(g, opt).status().IsInvalidArgument());

  opt = RecursiveOptions();
  opt.stable_similarity = 1.5;
  EXPECT_TRUE(BuildRecursiveHierarchy(g, opt).status().IsInvalidArgument());
}

}  // namespace
}  // namespace oca
