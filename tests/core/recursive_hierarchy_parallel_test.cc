// Serial-vs-parallel determinism of BuildRecursiveHierarchy.
//
// The parallel scheduler's contract is structural determinism: an
// expansion is a pure function of (community, depth), children get
// stable identities from (depth, parent, community index), and the
// arena is assembled in canonical BFS order regardless of completion
// order — so the serial reference path (num_threads == 0) and any
// N-worker build must be byte-identical in every deterministic field.
// These tests pin that, on a skewed tree too, the scheduling report,
// and error propagation through the pool (a failing worker must surface
// its status, not deadlock the queue).
//
// The CI thread-matrix job re-runs this file at OCA_THREADS in
// {1, 2, nproc} on a multi-core runner; the env value is added to the
// locally pinned {0, 1, 4} matrix below.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "core/cover.h"
#include "core/recursive_hierarchy.h"
#include "gen/nested_partition.h"
#include "graph/graph_builder.h"
#include "util/thread_pool.h"

namespace oca {
namespace {

NestedBenchmarkGraph MixedScaleGraph(uint64_t seed) {
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

RecursiveHierarchyOptions Options(uint64_t seed, size_t num_threads) {
  RecursiveHierarchyOptions opt;
  opt.base.seed = seed;
  opt.base.halting.max_seeds = 720;
  opt.base.halting.target_coverage = 0.98;
  opt.base.halting.stagnation_window = 150;
  opt.num_threads = num_threads;
  return opt;
}

/// Thread counts under test: the serial reference, a 1-worker pool
/// (same scheduler code as N, no actual concurrency), a 4-worker pool,
/// and whatever the CI matrix passes via OCA_THREADS.
std::vector<size_t> ThreadMatrix() {
  std::set<size_t> counts = {0, 1, 4};
  counts.insert(ThreadCountFromEnv("OCA_THREADS", 4));
  return {counts.begin(), counts.end()};
}

/// Field-by-field equality over every deterministic field (all but the
/// wall-clock seconds of OcaRunStats and the scheduling report). Digest
/// equality is asserted separately — this exists for readable failures.
void ExpectTreesIdentical(const RecursiveHierarchy& a,
                          const RecursiveHierarchy& b, size_t threads) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size()) << "threads " << threads;
  ASSERT_EQ(a.roots, b.roots) << "threads " << threads;
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    const RecursiveCommunity& x = a.nodes[i];
    const RecursiveCommunity& y = b.nodes[i];
    EXPECT_EQ(x.community, y.community) << "node " << i;
    EXPECT_EQ(x.parent, y.parent) << "node " << i;
    EXPECT_EQ(x.children, y.children) << "node " << i;
    EXPECT_EQ(x.depth, y.depth) << "node " << i;
    EXPECT_EQ(x.stop_reason, y.stop_reason) << "node " << i;
    // Bit-exact, not approximate: the same solve ran on both sides.
    EXPECT_EQ(x.subgraph_c, y.subgraph_c) << "node " << i;
    EXPECT_EQ(x.subgraph_lambda_min, y.subgraph_lambda_min) << "node " << i;
    EXPECT_EQ(x.spectral_iterations, y.spectral_iterations) << "node " << i;
    EXPECT_EQ(x.split_stats.coupling_constant,
              y.split_stats.coupling_constant)
        << "node " << i;
    EXPECT_EQ(x.split_stats.lambda_min, y.split_stats.lambda_min)
        << "node " << i;
    EXPECT_EQ(x.split_stats.seeds_expanded, y.split_stats.seeds_expanded)
        << "node " << i;
    EXPECT_EQ(x.split_stats.raw_communities, y.split_stats.raw_communities)
        << "node " << i;
    EXPECT_EQ(x.split_stats.halting_reason, y.split_stats.halting_reason)
        << "node " << i;
  }
  EXPECT_EQ(a.chain.subgraph_solves, b.chain.subgraph_solves);
  EXPECT_EQ(a.chain.total_iterations, b.chain.total_iterations);
  EXPECT_EQ(a.max_depth_reached, b.max_depth_reached);
  EXPECT_EQ(a.root_stats.coupling_constant, b.root_stats.coupling_constant);
  EXPECT_EQ(a.root_stats.spectral_iterations,
            b.root_stats.spectral_iterations);
  EXPECT_EQ(a.Digest(), b.Digest()) << "threads " << threads;
}

// Every subgraph solve starts from a random vector drawn from the
// configured seed alone, so which worker's engine runs it cannot show.
TEST(RecursiveHierarchyParallelTest, TreesAreByteIdenticalAcrossThreads) {
  for (uint64_t seed : {3u, 7u, 13u}) {
    auto bench = MixedScaleGraph(seed);
    auto reference =
        BuildRecursiveHierarchy(bench.graph, Options(seed, 0)).value();
    ASSERT_GT(reference.nodes.size(), reference.roots.size())
        << "seed " << seed << ": the pinned seeds must genuinely recurse";
    for (size_t threads : ThreadMatrix()) {
      if (threads == 0) continue;
      auto tree =
          BuildRecursiveHierarchy(bench.graph, Options(seed, threads))
              .value();
      ExpectTreesIdentical(reference, tree, threads);
    }
  }
}

TEST(RecursiveHierarchyParallelTest, SchedulingStatsAreReported) {
  auto bench = MixedScaleGraph(7);
  auto serial =
      BuildRecursiveHierarchy(bench.graph, Options(7, 0)).value();
  EXPECT_EQ(serial.scheduling.num_workers, 0u);
  EXPECT_EQ(serial.scheduling.tasks_run, serial.nodes.size());
  EXPECT_EQ(serial.scheduling.max_concurrent, 1u);

  auto pooled =
      BuildRecursiveHierarchy(bench.graph, Options(7, 4)).value();
  EXPECT_EQ(pooled.scheduling.num_workers, 4u);
  EXPECT_EQ(pooled.scheduling.tasks_run, pooled.nodes.size());
  EXPECT_GE(pooled.scheduling.max_concurrent, 1u);
  EXPECT_LE(pooled.scheduling.max_concurrent, 4u);
}

// A pooled build runs its root phase on the workers' thread count, so
// with 2 or more workers the root run pools its climbs and climbs a few
// seeds past its halt (at most 2 per thread). The serial reference and
// a 1-worker build climb only the seeds they record; every build
// records the same ones.
TEST(RecursiveHierarchyParallelTest, RootRunClimbsOnTheWorkersThreads) {
  auto bench = MixedScaleGraph(7);
  const OcaRunStats reference =
      BuildRecursiveHierarchy(bench.graph, Options(7, 0)).value().root_stats;
  EXPECT_EQ(reference.climbs, reference.seeds_expanded);
  for (size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const OcaRunStats root =
        BuildRecursiveHierarchy(bench.graph, Options(7, threads))
            .value()
            .root_stats;
    EXPECT_EQ(root.seeds_expanded, reference.seeds_expanded);
    EXPECT_EQ(root.raw_communities, reference.raw_communities);
    EXPECT_EQ(root.halting_reason, reference.halting_reason);
    if (threads == 1) {
      EXPECT_EQ(root.climbs, root.seeds_expanded);
    } else {
      EXPECT_GT(root.climbs, root.seeds_expanded);
      EXPECT_LE(root.climbs, root.seeds_expanded + 2 * threads);
    }
  }
}

// No solve inherits a start vector from its parent's, so a pooled build
// whose workers each solve on their own engine reproduces the serial
// chain solve for solve, and neither path reports a warm start.
TEST(RecursiveHierarchyParallelTest, ColdChainIsIdenticalAcrossThreadsToo) {
  auto bench = MixedScaleGraph(7);
  auto serial = BuildRecursiveHierarchy(bench.graph, Options(7, 0)).value();
  auto pooled = BuildRecursiveHierarchy(bench.graph, Options(7, 4)).value();
  ASSERT_GT(serial.chain.subgraph_solves, 0u);
  EXPECT_EQ(serial.scheduling.warm_start_hit_rate, 0.0);
  EXPECT_EQ(pooled.scheduling.warm_start_hit_rate, 0.0);
  ExpectTreesIdentical(serial, pooled, 4);
}

/// A deliberately skewed workload: one deep mixed-scale component whose
/// subtree keeps splitting, plus shallow clique appendages that finish
/// immediately. The depth-prioritized queue drains the deep subtree
/// ahead of fanning across the cheap siblings; the digest must not
/// notice.
Graph SkewedGraph() {
  auto bench = MixedScaleGraph(7);
  const Graph& base = bench.graph;
  const NodeId clique_size = 8;
  const NodeId num_cliques = 6;
  GraphBuilder builder(base.num_nodes() + num_cliques * clique_size);
  for (NodeId v = 0; v < base.num_nodes(); ++v) {
    for (NodeId u : base.Neighbors(v)) {
      if (u > v) builder.AddEdge(v, u);
    }
  }
  NodeId off = base.num_nodes();
  for (NodeId c = 0; c < num_cliques; ++c) {
    for (NodeId i = 0; i < clique_size; ++i) {
      for (NodeId j = i + 1; j < clique_size; ++j) {
        builder.AddEdge(off + i, off + j);
      }
    }
    builder.AddEdge(off, c);  // bridge keeps the graph connected
    off += clique_size;
  }
  return builder.Build().value();
}

TEST(RecursiveHierarchyParallelTest, SkewedTreePooledDigestMatchesSerial) {
  Graph g = SkewedGraph();
  RecursiveHierarchyOptions opt = Options(7, 0);
  opt.base.halting.max_seeds = g.num_nodes() * 3;
  auto serial = BuildRecursiveHierarchy(g, opt).value();
  ASSERT_GT(serial.nodes.size(), serial.roots.size())
      << "the deep component must genuinely recurse";
  ASSERT_GE(serial.max_depth_reached, 1u);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    opt.num_threads = threads;
    auto pooled = BuildRecursiveHierarchy(g, opt).value();
    EXPECT_EQ(pooled.Digest(), serial.Digest()) << "threads " << threads;
    EXPECT_EQ(pooled.nodes.size(), serial.nodes.size());
    EXPECT_EQ(pooled.max_depth_reached, serial.max_depth_reached);
  }
}

TEST(RecursiveHierarchyParallelTest, SolveFailureDoesNotDeadlockTheQueue) {
  auto bench = MixedScaleGraph(7);
  // Fail every subgraph solve: with 4 workers, several expansion tasks
  // fail concurrently. The build must drain and surface a status — if
  // the scheduler mishandled a failing task's bookkeeping, pool.Wait()
  // would hang and the test would time out.
  RecursiveHierarchyOptions opt = Options(7, 4);
  opt.solve_fault_for_testing = [](const Community&, uint32_t) {
    return Status::Internal("injected solve fault");
  };
  auto result = BuildRecursiveHierarchy(bench.graph, opt);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("injected solve fault"),
            std::string::npos);
}

TEST(RecursiveHierarchyParallelTest, FailureStatusMatchesSerialPath) {
  auto bench = MixedScaleGraph(7);
  // Fail only below the root level so roots expand, children get
  // scheduled, and one specific grandchild-level expansion dies. The
  // canonical merge must return the same (first-in-BFS-order) status
  // the serial reference stops at.
  auto fault = [](const Community& community, uint32_t depth) {
    if (depth >= 1) {
      return Status::Internal("fault at depth 1, size " +
                              std::to_string(community.size()));
    }
    return Status::OK();
  };
  RecursiveHierarchyOptions serial_opt = Options(7, 0);
  serial_opt.solve_fault_for_testing = fault;
  RecursiveHierarchyOptions pooled_opt = Options(7, 4);
  pooled_opt.solve_fault_for_testing = fault;

  auto serial = BuildRecursiveHierarchy(bench.graph, serial_opt);
  auto pooled = BuildRecursiveHierarchy(bench.graph, pooled_opt);
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(pooled.ok());
  EXPECT_EQ(serial.status().ToString(), pooled.status().ToString());
}

TEST(RecursiveHierarchyParallelTest, FaultHookOnlyFiresForSolvedNodes) {
  auto bench = MixedScaleGraph(7);
  // A hook that never fails, used as a probe: it must fire exactly once
  // per node that reaches the solve (leaves gated by min_size/max_depth/
  // density never consult it), same count serial and pooled.
  std::atomic<size_t> serial_calls{0};
  RecursiveHierarchyOptions serial_opt = Options(7, 0);
  serial_opt.solve_fault_for_testing = [&](const Community&, uint32_t) {
    ++serial_calls;
    return Status::OK();
  };
  auto serial = BuildRecursiveHierarchy(bench.graph, serial_opt).value();

  std::atomic<size_t> pooled_calls{0};
  RecursiveHierarchyOptions pooled_opt = Options(7, 4);
  pooled_opt.solve_fault_for_testing = [&](const Community&, uint32_t) {
    ++pooled_calls;
    return Status::OK();
  };
  auto pooled = BuildRecursiveHierarchy(bench.graph, pooled_opt).value();

  EXPECT_EQ(serial_calls.load(), serial.chain.subgraph_solves);
  EXPECT_EQ(pooled_calls.load(), serial_calls.load());
  EXPECT_EQ(serial.Digest(), pooled.Digest());
}

// The determinism contract extends to cache-reordered inputs: for a
// FIXED reordered representation, serial and every N-worker build are
// byte-identical (and so are their digests after MapToOriginalIds).
// The CI thread-matrix legs each run this at their OCA_THREADS value;
// the cross-leg digest comparison then proves the reordered build is
// one value across the whole matrix.
TEST(RecursiveHierarchyParallelTest, ReorderedGraphTreesAreByteIdentical) {
  auto bench = MixedScaleGraph(3);
  Graph reordered =
      ReorderGraph(bench.graph, ComputeNodeOrdering(bench.graph,
                                                    NodeOrdering::kDegreeSort))
          .value();
  auto reference = BuildRecursiveHierarchy(reordered, Options(3, 0)).value();
  ASSERT_GT(reference.nodes.size(), reference.roots.size())
      << "the pinned seed must genuinely recurse";
  for (size_t threads : ThreadMatrix()) {
    if (threads == 0) continue;
    auto tree =
        BuildRecursiveHierarchy(reordered, Options(3, threads)).value();
    ExpectTreesIdentical(reference, tree, threads);
    EXPECT_EQ(tree.Digest(), reference.Digest()) << "threads " << threads;
    // Mapping to original ids is deterministic too: digests still match.
    tree.MapToOriginalIds(reordered);
    auto mapped_reference = reference;
    mapped_reference.MapToOriginalIds(reordered);
    EXPECT_EQ(tree.Digest(), mapped_reference.Digest())
        << "threads " << threads;
  }
}

// MapCoverToOriginalIds round-trips the reordered build's leaves into
// the original labeling: every member id is a valid original id and the
// node universe is preserved.
TEST(RecursiveHierarchyParallelTest, MappedLeafCoverSpeaksOriginalIds) {
  auto bench = MixedScaleGraph(3);
  Graph reordered =
      ReorderGraph(bench.graph,
                   ComputeNodeOrdering(bench.graph, NodeOrdering::kRcm))
          .value();
  auto tree = BuildRecursiveHierarchy(reordered, Options(3, 0)).value();
  Cover raw = tree.LeafCover();
  Cover mapped = MapCoverToOriginalIds(raw, reordered);
  ASSERT_EQ(mapped.size(), raw.size());
  size_t raw_members = 0;
  size_t mapped_members = 0;
  for (const auto& c : raw.communities()) raw_members += c.size();
  for (const auto& c : mapped.communities()) {
    mapped_members += c.size();
    for (NodeId v : c) {
      ASSERT_LT(v, bench.graph.num_nodes());
    }
  }
  EXPECT_EQ(mapped_members, raw_members);
  // Mapping then MapToOriginalIds on the tree agree.
  tree.MapToOriginalIds(reordered);
  EXPECT_EQ(tree.LeafCover(), mapped);
}

}  // namespace
}  // namespace oca
