// The cross-solve batcher contract (BatchRestrictionSeeds) and the
// scheduling/warm-start accounting built on it:
//   * each child's seed equals the naive single-vector shifted-power
//     polish of the masked restriction (the SpMM fusion is a pure
//     bandwidth trick),
//   * seeds are independent of the chunk split — batching 12 children
//     through 8-wide chunks gives the same bits as 12 singleton calls,
//   * degenerate restrictions (no usable mass) yield EMPTY seeds,
//   * subgraph-local translation via to_original matches the identity
//     call on pre-translated children,
//   * the depth-prioritized pool on a skewed tree still reproduces the
//     serial digest, and
//   * per-node warm_start_distance is consistent with the scheduling
//     stats (ancestor_warm_hits, max_warm_start_distance).

#include "core/recursive_hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/cover.h"
#include "gen/erdos_renyi.h"
#include "gen/nested_partition.h"
#include "graph/graph_builder.h"
#include "graph/subgraph.h"
#include "spectral/csr_matvec.h"
#include "util/random.h"

namespace oca {
namespace {

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

RecursiveHierarchyOptions Options(uint64_t seed, size_t num_threads) {
  RecursiveHierarchyOptions opt;
  opt.base.seed = seed;
  opt.base.halting.max_seeds = 720;
  opt.base.halting.target_coverage = 0.98;
  opt.base.halting.stagnation_window = 150;
  opt.num_threads = num_threads;
  return opt;
}

std::vector<double> RandomVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.NextDouble() * 2.0 - 1.0;
  return x;
}

/// The definition, one child at a time with the single-vector kernel:
/// mask, w = (sigma*I - A) x, restrict, floor, normalize.
std::vector<std::vector<double>> NaiveSeeds(
    const Graph& g, const std::vector<double>& vec,
    const std::vector<Community>& children) {
  const double sigma = static_cast<double>(g.MaxDegree());
  std::vector<std::vector<double>> seeds;
  for (const Community& child : children) {
    std::vector<double> x(g.num_nodes(), 0.0);
    for (NodeId v : child) x[v] = vec[v];
    std::vector<double> y;
    AdjacencyMatVec(g, x, &y);
    std::vector<double> seed(child.size());
    double norm_sq = 0.0;
    for (size_t t = 0; t < child.size(); ++t) {
      seed[t] = sigma * vec[child[t]] - y[child[t]];
      norm_sq += seed[t] * seed[t];
    }
    const double norm = std::sqrt(norm_sq);
    if (!(norm > 1e-6) || !std::isfinite(norm)) {
      seeds.emplace_back();
      continue;
    }
    for (double& s : seed) s /= norm;
    seeds.push_back(std::move(seed));
  }
  return seeds;
}

TEST(BatchRestrictionSeedsTest, MatchesNaiveSingleVectorPolish) {
  Rng rng(29);
  Graph g = ErdosRenyi(200, 0.05, &rng).value();
  std::vector<double> vec = RandomVector(g.num_nodes(), 29);
  // Overlapping, unevenly sized children — the shape real covers have.
  std::vector<Community> children;
  children.push_back([] {
    Community c;
    for (NodeId v = 0; v < 50; ++v) c.push_back(v);
    return c;
  }());
  children.push_back([] {
    Community c;
    for (NodeId v = 40; v < 130; ++v) c.push_back(v);
    return c;
  }());
  children.push_back({5, 17, 199});

  auto batched = BatchRestrictionSeeds(g, vec, nullptr, children);
  auto naive = NaiveSeeds(g, vec, children);
  ASSERT_EQ(batched.size(), children.size());
  for (size_t j = 0; j < children.size(); ++j) {
    ASSERT_EQ(batched[j].size(), naive[j].size()) << "child " << j;
    double norm_sq = 0.0;
    for (size_t t = 0; t < batched[j].size(); ++t) {
      EXPECT_DOUBLE_EQ(batched[j][t], naive[j][t])
          << "child " << j << " entry " << t;
      norm_sq += batched[j][t] * batched[j][t];
    }
    if (!batched[j].empty()) {
      EXPECT_NEAR(norm_sq, 1.0, 1e-12);
    }
  }
}

TEST(BatchRestrictionSeedsTest, ChunkSplitDoesNotChangeTheBits) {
  Rng rng(31);
  Graph g = ErdosRenyi(240, 0.04, &rng).value();
  std::vector<double> vec = RandomVector(g.num_nodes(), 31);
  // 12 children: the batched call splits them 8 + 4; the reference
  // feeds each child alone (chunk width 1).
  std::vector<Community> children;
  for (NodeId base = 0; base + 20 <= 240; base += 20) {
    Community c;
    for (NodeId v = base; v < base + 20; ++v) c.push_back(v);
    children.push_back(std::move(c));
  }
  ASSERT_EQ(children.size(), 12u);

  auto batched = BatchRestrictionSeeds(g, vec, nullptr, children);
  ASSERT_EQ(batched.size(), children.size());
  for (size_t j = 0; j < children.size(); ++j) {
    auto single = BatchRestrictionSeeds(g, vec, nullptr, {children[j]});
    ASSERT_EQ(single.size(), 1u);
    // Bit-equality: the multi kernel's per-column contract means the
    // seed cannot depend on which siblings shared its adjacency sweep.
    EXPECT_EQ(batched[j], single[0]) << "child " << j;
  }
}

TEST(BatchRestrictionSeedsTest, DegenerateRestrictionYieldsEmptySeed) {
  Rng rng(37);
  Graph g = ErdosRenyi(120, 0.06, &rng).value();
  std::vector<double> vec = RandomVector(g.num_nodes(), 37);
  Community dead = {100, 101, 102, 103};
  // Zero the eigenvector on the dead child's whole neighborhood: the
  // masked restriction and its polish are exactly zero there.
  for (NodeId v : dead) {
    vec[v] = 0.0;
    for (NodeId u : g.Neighbors(v)) vec[u] = 0.0;
  }
  Community live = {0, 1, 2, 3, 4, 5, 6, 7};
  auto seeds = BatchRestrictionSeeds(g, vec, nullptr, {live, dead});
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_EQ(seeds[0].size(), live.size());
  EXPECT_TRUE(seeds[1].empty()) << "zero-mass child must signal fallback";
}

TEST(BatchRestrictionSeedsTest, ToOriginalTranslationMatchesIdentity) {
  Rng rng(41);
  Graph g = ErdosRenyi(300, 0.04, &rng).value();
  // Subgraph on every other node; children given in ORIGINAL ids.
  std::vector<NodeId> keep;
  for (NodeId v = 0; v < g.num_nodes(); v += 2) keep.push_back(v);
  Subgraph sub = InducedSubgraph(g, keep).value();
  const size_t n = sub.graph.num_nodes();
  std::vector<double> vec = RandomVector(n, 41);

  std::vector<Community> children_orig;
  std::vector<Community> children_local;
  for (size_t base = 0; base + 30 <= n; base += 60) {
    Community orig, local;
    for (size_t t = base; t < base + 30; ++t) {
      local.push_back(static_cast<NodeId>(t));
      orig.push_back(sub.to_original[t]);
    }
    children_orig.push_back(std::move(orig));
    children_local.push_back(std::move(local));
  }

  auto translated =
      BatchRestrictionSeeds(sub.graph, vec, &sub.to_original, children_orig);
  auto identity =
      BatchRestrictionSeeds(sub.graph, vec, nullptr, children_local);
  ASSERT_EQ(translated.size(), identity.size());
  for (size_t j = 0; j < translated.size(); ++j) {
    EXPECT_EQ(translated[j], identity[j]) << "child " << j;
  }

  // A child containing an id NOT in the subgraph cannot be restricted:
  // empty seed, no crash.
  Community foreign = children_orig[0];
  foreign.push_back(sub.to_original.back() + 1);
  auto bad = BatchRestrictionSeeds(sub.graph, vec, &sub.to_original,
                                   {foreign});
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_TRUE(bad[0].empty());
}

// ---------------------------------------------------------------------
// Scheduling on a skewed tree + warm-start distance accounting.
// ---------------------------------------------------------------------

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

TEST(RecursiveSchedulingTest, SkewedTreePooledDigestMatchesSerial) {
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

TEST(RecursiveSchedulingTest, WarmStartDistancesConsistentWithStats) {
  auto bench = MixedScaleGraph(7);
  for (size_t threads : {size_t{0}, size_t{4}}) {
    auto tree =
        BuildRecursiveHierarchy(bench.graph, Options(7, threads)).value();
    size_t ancestor_hits = 0;
    size_t max_distance = 0;
    size_t solved = 0;
    for (const RecursiveCommunity& node : tree.nodes) {
      if (!node.SubgraphSolved()) continue;
      ++solved;
      // distance 0 <=> cold; any warm solve knows where its seed
      // came from (1 = batch/parent, >=2 = ancestor walk-up).
      EXPECT_EQ(node.warm_started, node.warm_start_distance > 0);
      if (node.warm_start_distance >= 2) ++ancestor_hits;
      max_distance = std::max<size_t>(max_distance,
                                      node.warm_start_distance);
    }
    ASSERT_GT(solved, 0u);
    EXPECT_EQ(tree.scheduling.ancestor_warm_hits, ancestor_hits)
        << "threads " << threads;
    EXPECT_EQ(tree.scheduling.max_warm_start_distance, max_distance)
        << "threads " << threads;
    // Batching is on by default and every solve has a live parent
    // vector, so every solved node is warm at distance >= 1.
    EXPECT_GE(tree.scheduling.max_warm_start_distance, 1u);
  }
}

TEST(RecursiveSchedulingTest, ColdRunReportsZeroDistances) {
  auto bench = MixedScaleGraph(7);
  RecursiveHierarchyOptions opt = Options(7, 0);
  opt.warm_start = false;
  auto tree = BuildRecursiveHierarchy(bench.graph, opt).value();
  for (const RecursiveCommunity& node : tree.nodes) {
    EXPECT_EQ(node.warm_start_distance, 0u);
  }
  EXPECT_EQ(tree.scheduling.ancestor_warm_hits, 0u);
  EXPECT_EQ(tree.scheduling.max_warm_start_distance, 0u);
}

TEST(RecursiveSchedulingTest, UnbatchedTreeIsDeterministicToo) {
  auto bench = MixedScaleGraph(7);
  RecursiveHierarchyOptions opt = Options(7, 0);
  opt.batch_restrictions = false;
  auto serial = BuildRecursiveHierarchy(bench.graph, opt).value();
  opt.num_threads = 4;
  auto pooled = BuildRecursiveHierarchy(bench.graph, opt).value();
  // Digests are only comparable at a FIXED batch_restrictions setting;
  // within that setting the full determinism contract still holds.
  EXPECT_EQ(pooled.Digest(), serial.Digest());
  EXPECT_EQ(pooled.chain.warm_started_solves,
            serial.chain.warm_started_solves);
}

}  // namespace
}  // namespace oca
