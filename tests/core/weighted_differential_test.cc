// The weighted refactor's HARD INVARIANT, pinned differentially:
//
//  (a) A graph built WITHOUT weights takes exactly the unweighted code
//      path — the weighted fields are inert mirrors and every
//      observable (covers, coupling constant, hierarchy digest,
//      fitness values) is the historical result bit for bit.
//  (b) A graph whose weights are ALL 1.0, searched with
//      use_weights = true, matches the unweighted run: multiplying by
//      1.0 is exact and sums of 1.0 are exact integers in double, so
//      every fitness evaluation — and therefore every greedy decision,
//      cover, and digest — coincides.
//
// Together these prove the weighted axis added code without perturbing
// a single existing behavior.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/local_search.h"
#include "core/oca.h"
#include "core/recursive_hierarchy.h"
#include "gen/nested_partition.h"
#include "gen/weight_assign.h"
#include "testing/test_graphs.h"
#include "util/random.h"

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

Graph UnitWeighted(const Graph& g) {
  WeightAssignOptions options;
  options.scheme = WeightScheme::kUnit;
  return AssignWeights(g, options).value();
}

TEST(WeightedDifferentialTest, WeightlessGraphHasNoWeightedState) {
  Graph g = testing::KarateClub();
  EXPECT_FALSE(g.is_weighted());
  EXPECT_TRUE(g.weight_array().empty());
  EXPECT_TRUE(g.Weights(0).empty());
  // Weighted accessors degrade to the integer quantities exactly.
  EXPECT_EQ(g.EdgeWeight(0, 1), 1.0);
  EXPECT_EQ(g.EdgeWeight(0, 33), 0.0);  // absent edge
  EXPECT_EQ(g.WeightedDegree(0), static_cast<double>(g.Degree(0)));
  EXPECT_EQ(g.MaxWeightedDegree(), static_cast<double>(g.MaxDegree()));
  EXPECT_EQ(g.TotalWeight(), static_cast<double>(g.num_edges()));
}

TEST(WeightedDifferentialTest, SubsetStatsMirrorsAreExactWhenWeightless) {
  Graph g = testing::TwoCliquesOverlap();
  SubsetStats stats = ComputeSubsetStats(g, Community{0, 1, 2, 3, 4, 5});
  EXPECT_EQ(stats.w_in, static_cast<double>(stats.ein));
  EXPECT_EQ(stats.w_volume, static_cast<double>(stats.volume));
  EXPECT_EQ(stats.WOut(), static_cast<double>(stats.Eout()));
}

TEST(WeightedDifferentialTest, WeightedFitnessOnMirrorsIsBitIdentical) {
  // For every kind: the weighted evaluation over mirrored integer
  // stats computes the identical expression, hence identical bits.
  Graph g = NestedGraph();
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    Community nodes;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (rng.NextBool(0.1)) nodes.push_back(v);
    }
    if (nodes.empty()) continue;
    const SubsetStats stats = ComputeSubsetStats(g, nodes);
    for (FitnessKind kind :
         {FitnessKind::kDirectedLaplacian, FitnessKind::kRawPhi,
          FitnessKind::kConductanceLike, FitnessKind::kLfk}) {
      FitnessParams integer_params;
      integer_params.kind = kind;
      FitnessParams weighted_params = integer_params;
      weighted_params.use_weights = true;
      EXPECT_EQ(EvaluateFitness(stats, integer_params),
                EvaluateFitness(stats, weighted_params))
          << FitnessKindName(kind);
    }
  }
}

TEST(WeightedDifferentialTest, WeightedGainsMatchIntegerGainsOnMirrors) {
  Graph g = NestedGraph();
  CommunityState state(g);
  for (NodeId v = 0; v < 30; ++v) state.Add(v);
  FitnessParams integer_params;
  FitnessParams weighted_params;
  weighted_params.use_weights = true;
  for (const auto& [node, deg_in] : state.Frontier()) {
    EXPECT_EQ(FitnessGainAdd(state.stats(), deg_in, g.Degree(node),
                             integer_params),
              WeightedFitnessGainAdd(state.stats(), state.WDegIn(node),
                                     g.WeightedDegree(node), weighted_params))
        << node;
  }
  for (NodeId member : state.members()) {
    EXPECT_EQ(FitnessGainRemove(state.stats(), state.DegIn(member),
                                g.Degree(member), integer_params),
              WeightedFitnessGainRemove(state.stats(), state.WDegIn(member),
                                        g.WeightedDegree(member),
                                        weighted_params))
        << member;
  }
}

TEST(WeightedDifferentialTest, AllOnesLocalSearchMatchesUnweighted) {
  // Every climb from every seed: the all-1.0 graph climbs on quantized
  // weighted keys, the unweighted one on exact deg-ins, and both keep
  // one tie rule, so the local maximum, the fitness bits and the move
  // counts coincide.
  Graph g = NestedGraph();
  Graph unit = UnitWeighted(g);
  ASSERT_TRUE(unit.is_weighted());
  LocalSearchOptions unweighted_opt;
  unweighted_opt.fitness.c = 0.4;
  LocalSearchOptions weighted_opt = unweighted_opt;
  weighted_opt.fitness.use_weights = true;
  for (NodeId seed = 0; seed < g.num_nodes(); ++seed) {
    auto base = GreedyLocalSearch(g, {seed}, unweighted_opt).value();
    auto wtd = GreedyLocalSearch(unit, {seed}, weighted_opt).value();
    ASSERT_EQ(base.community, wtd.community) << "seed " << seed;
    EXPECT_EQ(base.fitness, wtd.fitness) << "seed " << seed;
    EXPECT_EQ(base.steps, wtd.steps) << "seed " << seed;
    EXPECT_EQ(base.adds, wtd.adds) << "seed " << seed;
    EXPECT_EQ(base.removes, wtd.removes) << "seed " << seed;
  }
}

TEST(WeightedDifferentialTest, AllOnesOcaMatchesUnweighted) {
  Graph g = NestedGraph();
  Graph unit = UnitWeighted(g);
  OcaOptions options;
  options.seed = 5;
  options.halting.max_seeds = 300;
  options.halting.target_coverage = 0.97;
  auto base = RunOca(g, options).value();
  options.search.fitness.use_weights = true;
  auto wtd = RunOca(unit, options).value();
  EXPECT_EQ(base.cover, wtd.cover);
  // Unit weights multiply exactly: the weighted mat-vec produces the
  // same bits, so the spectral coupling constant coincides too.
  EXPECT_EQ(base.stats.coupling_constant, wtd.stats.coupling_constant);
  EXPECT_EQ(base.stats.lambda_min, wtd.stats.lambda_min);
}

TEST(WeightedDifferentialTest, AllOnesHierarchyDigestMatchesUnweighted) {
  Graph g = NestedGraph();
  Graph unit = UnitWeighted(g);
  RecursiveHierarchyOptions options;
  options.base.seed = 5;
  options.base.halting.max_seeds = 300;
  options.base.halting.target_coverage = 0.97;
  options.base.halting.stagnation_window = 120;
  const uint64_t base = BuildRecursiveHierarchy(g, options).value().Digest();
  options.base.search.fitness.use_weights = true;
  const uint64_t wtd =
      BuildRecursiveHierarchy(unit, options).value().Digest();
  EXPECT_EQ(base, wtd);
}

TEST(WeightedDifferentialTest, RealWeightsActuallyChangeTheSearch) {
  // Sanity that the weighted path is live, not a mirror: with strongly
  // non-uniform weights at least one seed must climb to a different
  // community than the unweighted search.
  Graph g = NestedGraph();
  WeightAssignOptions wopt;
  wopt.min_weight = 0.1;
  wopt.max_weight = 10.0;
  Graph weighted = AssignWeights(g, wopt).value();
  LocalSearchOptions unweighted_opt;
  unweighted_opt.fitness.c = 0.4;
  LocalSearchOptions weighted_opt = unweighted_opt;
  weighted_opt.fitness.use_weights = true;
  bool any_different = false;
  for (NodeId seed = 0; seed < g.num_nodes() && !any_different; ++seed) {
    auto base = GreedyLocalSearch(g, {seed}, unweighted_opt).value();
    auto wtd = GreedyLocalSearch(weighted, {seed}, weighted_opt).value();
    any_different = base.community != wtd.community;
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace oca
