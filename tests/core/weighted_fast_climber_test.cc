// Differential pins for the bucket-queue climber. GreedyLocalSearch
// climbs deg-in-ranked fitness on bucket queues: keyed on the exact
// deg-in, or, with use_weights on a weighted graph, on the quantized
// weighted deg-in with an exact rescan of the extreme bucket. It keeps
// the same tie rule as the reference scan (ReferenceLocalSearch), so
// every climb must match the reference exactly: community, fitness
// bits, step counts and SubsetStats bits, on unweighted, all-1.0 and
// hashed-weight graphs alike.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/local_search.h"
#include "gen/nested_partition.h"
#include "gen/weight_assign.h"
#include "testing/test_graphs.h"

namespace oca {
namespace {

Graph NestedGraph() {
  NestedPartitionOptions gen;
  gen.num_supers = 3;
  gen.subs_per_super = 3;
  gen.nodes_per_sub = 16;
  gen.p_sub = 0.85;
  gen.p_super = 0.15;
  gen.p_out = 0.06;
  gen.seed = 13;
  return GenerateNestedPartition(gen).value().graph;
}

// The tree workloads' shape at a quarter of their size: 384 nodes at
// degree ~39. RunOca-shaped seeds on it climb to |S| = 96, and 41% of
// their steps are removals, so keys move across many levels.
Graph TreeShapedGraph() {
  NestedPartitionOptions gen;
  gen.num_supers = 4;
  gen.subs_per_super = 4;
  gen.nodes_per_sub = 24;
  gen.p_sub = 0.85;
  gen.p_super = 0.15;
  gen.p_out = 0.03;
  gen.seed = 13;
  return GenerateNestedPartition(gen).value().graph;
}

Graph HashWeighted(const Graph& g, double lo = 0.1, double hi = 10.0,
                   uint64_t seed = 42) {
  WeightAssignOptions options;
  options.min_weight = lo;
  options.max_weight = hi;
  options.seed = seed;
  return AssignWeights(g, options).value();
}

Graph UnitWeighted(const Graph& g) {
  WeightAssignOptions options;
  options.scheme = WeightScheme::kUnit;
  return AssignWeights(g, options).value();
}

void ExpectClimbsMatch(const Graph& graph, const LocalSearchOptions& options,
                       const Community& seed) {
  auto fast = GreedyLocalSearch(graph, seed, options).value();
  auto reference = ReferenceLocalSearch(graph, seed, options).value();
  const NodeId first = seed.front();
  ASSERT_EQ(fast.community, reference.community) << "seed " << first;
  EXPECT_EQ(fast.fitness, reference.fitness) << "seed " << first;
  EXPECT_EQ(fast.steps, reference.steps) << "seed " << first;
  EXPECT_EQ(fast.adds, reference.adds) << "seed " << first;
  EXPECT_EQ(fast.removes, reference.removes) << "seed " << first;
  EXPECT_EQ(fast.hit_step_cap, reference.hit_step_cap) << "seed " << first;
  // Bookkeeping parity: identical move sequence + identical per-move
  // float accumulation order = bit-identical weighted stats.
  EXPECT_EQ(fast.stats.size, reference.stats.size) << "seed " << first;
  EXPECT_EQ(fast.stats.ein, reference.stats.ein) << "seed " << first;
  EXPECT_EQ(fast.stats.volume, reference.stats.volume) << "seed " << first;
  EXPECT_EQ(fast.stats.w_in, reference.stats.w_in) << "seed " << first;
  EXPECT_EQ(fast.stats.w_volume, reference.stats.w_volume)
      << "seed " << first;
}

// Every single-node climb of `graph`, with use_weights as given.
void ExpectAllSeedsMatch(const Graph& graph, LocalSearchOptions options,
                         bool use_weights) {
  options.fitness.use_weights = use_weights;
  for (NodeId seed = 0; seed < graph.num_nodes(); ++seed) {
    ExpectClimbsMatch(graph, options, {seed});
  }
}

TEST(WeightedFastClimberTest, MatchesGenericFromEverySeed) {
  LocalSearchOptions options;
  options.fitness.c = 0.4;
  const Graph g = NestedGraph();
  ExpectAllSeedsMatch(HashWeighted(g), options, true);
  // Unweighted and all-1.0 graphs: exact deg-ins tie often, so these
  // inputs pin the tie rule itself.
  ExpectAllSeedsMatch(g, options, false);
  ExpectAllSeedsMatch(g, options, true);
  ExpectAllSeedsMatch(UnitWeighted(g), options, true);
}

TEST(WeightedFastClimberTest, MatchesGenericOnSmallFixtures) {
  for (const Graph& g : {testing::KarateClub(), testing::TwoCliquesOverlap(),
                         testing::TwoCliquesBridge()}) {
    const LocalSearchOptions options;
    ExpectAllSeedsMatch(HashWeighted(g, 0.5, 4.0, 7), options, true);
    ExpectAllSeedsMatch(g, options, false);
    ExpectAllSeedsMatch(g, options, true);
    ExpectAllSeedsMatch(UnitWeighted(g), options, true);
  }
}

TEST(WeightedFastClimberTest, MatchesGenericUnderOptionVariants) {
  Graph weighted = HashWeighted(NestedGraph());
  LocalSearchOptions base;
  base.fitness.c = 0.4;
  base.fitness.use_weights = true;

  LocalSearchOptions capped = base;
  capped.max_community_size = 8;
  LocalSearchOptions no_remove = base;
  no_remove.allow_remove = false;
  LocalSearchOptions few_steps = base;
  few_steps.max_steps = 5;
  LocalSearchOptions coarse = base;
  coarse.epsilon = 0.05;
  const Graph unweighted = NestedGraph();
  for (const auto& options : {capped, no_remove, few_steps, coarse}) {
    LocalSearchOptions integer = options;
    integer.fitness.use_weights = false;
    for (NodeId seed = 0; seed < weighted.num_nodes(); seed += 7) {
      ExpectClimbsMatch(weighted, options, {seed});
      ExpectClimbsMatch(unweighted, options, {seed});
      ExpectClimbsMatch(unweighted, integer, {seed});
    }
  }
}

TEST(WeightedFastClimberTest, MatchesGenericOnRawPhi) {
  // Raw phi is monotone (every add improves), so pin it under a size
  // cap where the argmax ordering is the whole behavior.
  Graph weighted = HashWeighted(NestedGraph());
  LocalSearchOptions options;
  options.fitness.kind = FitnessKind::kRawPhi;
  options.fitness.c = 0.4;
  options.fitness.use_weights = true;
  options.max_community_size = 12;
  const Graph unweighted = NestedGraph();
  LocalSearchOptions integer = options;
  integer.fitness.use_weights = false;
  for (NodeId seed = 0; seed < weighted.num_nodes(); seed += 5) {
    ExpectClimbsMatch(weighted, options, {seed});
    ExpectClimbsMatch(unweighted, integer, {seed});
  }
}

TEST(WeightedFastClimberTest, MatchesGenericUnderExtremeWeightSkew) {
  // A 1e6:1 weight spread collapses nearly every node into quantization
  // bucket 0 — the exact within-bucket rescan, not the bucketing, must
  // carry correctness.
  Graph weighted = HashWeighted(testing::KarateClub(), 1e-3, 1e3, 99);
  LocalSearchOptions options;
  options.fitness.use_weights = true;
  for (NodeId seed = 0; seed < weighted.num_nodes(); ++seed) {
    ExpectClimbsMatch(weighted, options, {seed});
  }
}

TEST(WeightedFastClimberTest, MultiNodeSeedsMatchGeneric) {
  // RunOca seeds climbs with a node plus part of its neighbourhood, so
  // multi-node seeds are the shape every cover is built from.
  LocalSearchOptions options;
  options.fitness.c = 0.4;
  LocalSearchOptions integer = options;
  options.fitness.use_weights = true;
  for (const Graph& unweighted : {NestedGraph(), TreeShapedGraph()}) {
    const Graph weighted = HashWeighted(unweighted);
    for (NodeId base = 0; base + 4 < weighted.num_nodes(); base += 11) {
      Community seed{base, base + 1, base + 4};
      ExpectClimbsMatch(weighted, options, seed);
      ExpectClimbsMatch(unweighted, integer, seed);
      auto nbrs = unweighted.Neighbors(base);
      Community ball{base};
      for (size_t i = 0; i < nbrs.size(); i += 2) ball.push_back(nbrs[i]);
      ExpectClimbsMatch(weighted, options, ball);
      ExpectClimbsMatch(unweighted, integer, ball);
    }
  }
}

TEST(WeightedFastClimberTest, ScratchCacheSurvivesGraphSwitch) {
  // The per-thread scratch caches the weighted-degree table and the
  // quantization scale keyed on Graph::id(); alternating
  // between two different weighted graphs on one thread must invalidate
  // and rebuild, never reuse stale scales.
  Graph a = HashWeighted(NestedGraph(), 0.1, 10.0, 1);
  Graph b = HashWeighted(testing::KarateClub(), 0.5, 50.0, 2);
  LocalSearchOptions options;
  options.fitness.use_weights = true;
  auto a_fresh = GreedyLocalSearch(a, {3}, options).value();
  auto b_fresh = GreedyLocalSearch(b, {3}, options).value();
  for (int round = 0; round < 3; ++round) {
    auto a_again = GreedyLocalSearch(a, {3}, options).value();
    auto b_again = GreedyLocalSearch(b, {3}, options).value();
    EXPECT_EQ(a_again.community, a_fresh.community);
    EXPECT_EQ(a_again.fitness, a_fresh.fitness);
    EXPECT_EQ(b_again.community, b_fresh.community);
    EXPECT_EQ(b_again.fitness, b_fresh.fitness);
  }
}

TEST(WeightedFastClimberTest, ScratchCacheSeesWeightsRewrittenInPlace) {
  // Two graphs wrapped over the SAME caller-owned arrays, the weights
  // tripled in between, look alike by address and length. The scratch
  // must still rebuild its weighted-degree table for the second one.
  const Graph source = HashWeighted(NestedGraph());
  std::vector<uint64_t> offsets(source.offsets().begin(),
                                source.offsets().end());
  std::vector<NodeId> neighbors(source.neighbor_array().begin(),
                                source.neighbor_array().end());
  std::vector<double> weights(source.weight_array().begin(),
                              source.weight_array().end());
  // The caller owns the arrays, so the keep-alive handle owns nothing.
  const std::shared_ptr<const void> caller_owned(weights.data(),
                                                 [](const void*) {});
  auto wrap = [&] {
    return Graph::FromExternal(std::span<const uint64_t>(offsets),
                               std::span<const NodeId>(neighbors),
                               std::span<const double>(weights),
                               caller_owned);
  };
  LocalSearchOptions options;
  options.fitness.c = 0.4;
  options.fitness.use_weights = true;
  const Community seed = {3};

  ASSERT_TRUE(GreedyLocalSearch(wrap(), seed, options).ok());
  for (double& w : weights) w *= 3.0;
  const Graph tripled = wrap();
  auto reused = GreedyLocalSearch(tripled, seed, options).value();
  LocalSearchResult fresh;
  std::thread([&] {
    fresh = GreedyLocalSearch(tripled, seed, options).value();
  }).join();
  EXPECT_EQ(reused.stats.w_volume, fresh.stats.w_volume);
  EXPECT_EQ(reused.stats.w_in, fresh.stats.w_in);
  EXPECT_EQ(reused.community, fresh.community);
  EXPECT_EQ(reused.fitness, fresh.fitness);
}

TEST(WeightedFastClimberTest, UnweightedGraphWithUseWeightsTakesIntegerPath) {
  // use_weights on an UNWEIGHTED graph is the all-1.0 case: the weighted
  // evaluation of the mirrored stats is bit-identical to the integer
  // one, so the climb on the exact integer key must reproduce the
  // integer run exactly — covers, fitness, steps.
  Graph g = NestedGraph();
  LocalSearchOptions integer_opt;
  integer_opt.fitness.c = 0.4;
  LocalSearchOptions weighted_opt = integer_opt;
  weighted_opt.fitness.use_weights = true;
  for (NodeId seed = 0; seed < g.num_nodes(); ++seed) {
    auto base = GreedyLocalSearch(g, {seed}, integer_opt).value();
    auto wtd = GreedyLocalSearch(g, {seed}, weighted_opt).value();
    ASSERT_EQ(base.community, wtd.community) << "seed " << seed;
    EXPECT_EQ(base.fitness, wtd.fitness) << "seed " << seed;
    EXPECT_EQ(base.steps, wtd.steps) << "seed " << seed;
  }
}

}  // namespace
}  // namespace oca
