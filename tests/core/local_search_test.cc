#include "core/local_search.h"

#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "gen/erdos_renyi.h"
#include "spectral/spectral_engine.h"
#include "testing/test_graphs.h"
#include "util/random.h"

namespace oca {
namespace {

using testing::Clique;
using testing::TwoCliquesBridge;
using testing::TwoCliquesOverlap;

LocalSearchOptions LaplacianOptions(double c) {
  LocalSearchOptions opt;
  opt.fitness.kind = FitnessKind::kDirectedLaplacian;
  opt.fitness.c = c;
  return opt;
}

TEST(LocalSearchTest, RecoversCliqueFromOneNode) {
  Graph g = TwoCliquesBridge();
  double c = ComputeCouplingConstant(g).value();
  auto result = GreedyLocalSearch(g, {0}, LaplacianOptions(c)).value();
  EXPECT_EQ(result.community, (Community{0, 1, 2, 3, 4}));
  EXPECT_GT(result.fitness, 1.0);
  EXPECT_EQ(result.stats.ein, 10u);
}

TEST(LocalSearchTest, RecoversOtherCliqueFromItsSide) {
  Graph g = TwoCliquesBridge();
  double c = ComputeCouplingConstant(g).value();
  auto result = GreedyLocalSearch(g, {9}, LaplacianOptions(c)).value();
  EXPECT_EQ(result.community, (Community{5, 6, 7, 8, 9}));
}

TEST(LocalSearchTest, OverlappingCliquesFoundFromEachSide) {
  // The core overlapping scenario: seeds on either side recover the two
  // overlapping 6-cliques, both containing the shared nodes {4, 5}.
  Graph g = TwoCliquesOverlap();
  double c = ComputeCouplingConstant(g).value();
  auto left = GreedyLocalSearch(g, {0}, LaplacianOptions(c)).value();
  auto right = GreedyLocalSearch(g, {9}, LaplacianOptions(c)).value();
  EXPECT_EQ(left.community, (Community{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(right.community, (Community{4, 5, 6, 7, 8, 9}));
}

TEST(LocalSearchTest, RemovesBadSeedMembers) {
  // Seed contains a node from the wrong clique; the search must drop it.
  Graph g = TwoCliquesBridge();
  double c = ComputeCouplingConstant(g).value();
  auto result =
      GreedyLocalSearch(g, {0, 1, 9}, LaplacianOptions(c)).value();
  EXPECT_EQ(result.community, (Community{0, 1, 2, 3, 4}));
  EXPECT_GT(result.removes, 0u);
}

TEST(LocalSearchTest, FitnessNeverDecreasesAlongPath) {
  // Strict improvement is the termination argument; verify via the step
  // counter against a re-run with max_steps.
  Graph g = testing::KarateClub();
  double c = ComputeCouplingConstant(g).value();
  auto full = GreedyLocalSearch(g, {0}, LaplacianOptions(c)).value();
  double prev = -1.0;
  for (size_t cap = 1; cap <= full.steps; ++cap) {
    LocalSearchOptions opt = LaplacianOptions(c);
    opt.max_steps = cap;
    auto partial = GreedyLocalSearch(g, {0}, opt).value();
    EXPECT_GT(partial.fitness, prev);
    prev = partial.fitness;
  }
}

TEST(LocalSearchTest, LocalMaximumIsStable) {
  // Re-seeding from the found community must not move.
  Graph g = TwoCliquesOverlap();
  double c = ComputeCouplingConstant(g).value();
  auto first = GreedyLocalSearch(g, {0}, LaplacianOptions(c)).value();
  auto again =
      GreedyLocalSearch(g, first.community, LaplacianOptions(c)).value();
  EXPECT_EQ(again.community, first.community);
  EXPECT_EQ(again.steps, 0u);
}

TEST(LocalSearchTest, EmptySeedErrors) {
  Graph g = Clique(4);
  auto result = GreedyLocalSearch(g, {}, LaplacianOptions(0.5));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(LocalSearchTest, OutOfRangeSeedErrors) {
  Graph g = Clique(4);
  EXPECT_FALSE(GreedyLocalSearch(g, {99}, LaplacianOptions(0.5)).ok());
}

TEST(LocalSearchTest, MaxCommunitySizeCapsGrowth) {
  Graph g = Clique(20);
  LocalSearchOptions opt = LaplacianOptions(0.9);
  opt.max_community_size = 7;
  auto result = GreedyLocalSearch(g, {0}, opt).value();
  EXPECT_LE(result.community.size(), 7u);
}

TEST(LocalSearchTest, StepCapReported) {
  Graph g = Clique(30);
  LocalSearchOptions opt = LaplacianOptions(0.9);
  opt.max_steps = 3;
  auto result = GreedyLocalSearch(g, {0}, opt).value();
  EXPECT_TRUE(result.hit_step_cap);
  EXPECT_EQ(result.steps, 3u);
}

TEST(LocalSearchTest, RawPhiDegeneratesToWholeComponent) {
  // Ablation sanity: with the monotone raw phi the search swallows the
  // entire connected component — exactly the paper's argument for the
  // directed Laplacian.
  Graph g = TwoCliquesBridge();
  LocalSearchOptions opt;
  opt.fitness.kind = FitnessKind::kRawPhi;
  opt.fitness.c = 0.5;
  auto result = GreedyLocalSearch(g, {0}, opt).value();
  EXPECT_EQ(result.community.size(), g.num_nodes());
}

TEST(LocalSearchTest, DisallowRemoveStillTerminates) {
  Graph g = testing::KarateClub();
  double c = ComputeCouplingConstant(g).value();
  LocalSearchOptions opt = LaplacianOptions(c);
  opt.allow_remove = false;
  auto result = GreedyLocalSearch(g, {0, 33}, opt).value();
  EXPECT_EQ(result.removes, 0u);
  EXPECT_GE(result.community.size(), 2u);
}

TEST(LocalSearchTest, DeterministicForFixedSeedSet) {
  Rng rng(3);
  Graph g = ErdosRenyi(200, 0.05, &rng).value();
  double c = ComputeCouplingConstant(g).value();
  auto a = GreedyLocalSearch(g, {10, 11}, LaplacianOptions(c)).value();
  auto b = GreedyLocalSearch(g, {11, 10}, LaplacianOptions(c)).value();
  EXPECT_EQ(a.community, b.community);
  EXPECT_EQ(a.fitness, b.fitness);
}

TEST(LocalSearchTest, ScratchReuseAcrossGraphsMatchesFreshThread) {
  // The bucket climber keeps per-thread scratch whose bucket array grows
  // to the largest deg-in it has seen. Climbing a sparse graph, then a
  // clique whose deg-ins reach 199, then the sparse graph again on one
  // thread must give exactly what each climb gives on a new thread.
  Rng rng(3);
  Graph sparse = ErdosRenyi(200, 0.05, &rng).value();
  Graph clique = Clique(200);
  const double c = ComputeCouplingConstant(sparse).value();
  const LocalSearchOptions opt = LaplacianOptions(c);
  Community sparse_seed = {10, 11, 120, 150};
  for (NodeId u : sparse.Neighbors(10)) sparse_seed.push_back(u);
  Community clique_seed(20);
  std::iota(clique_seed.begin(), clique_seed.end(), NodeId{0});

  struct Climb {
    const Graph* graph;
    const Community* seed;
  };
  const Climb climbs[] = {{&sparse, &sparse_seed},
                          {&clique, &clique_seed},
                          {&sparse, &sparse_seed}};
  for (const Climb& climb : climbs) {
    auto reused = GreedyLocalSearch(*climb.graph, *climb.seed, opt).value();
    LocalSearchResult fresh;
    std::thread([&] {
      fresh = GreedyLocalSearch(*climb.graph, *climb.seed, opt).value();
    }).join();
    EXPECT_GT(fresh.steps, 0u);
    if (climb.graph == &clique) {
      EXPECT_EQ(fresh.community.size(), 200u);
    }
    EXPECT_EQ(reused.community, fresh.community);
    EXPECT_EQ(reused.fitness, fresh.fitness);
    EXPECT_EQ(reused.steps, fresh.steps);
    EXPECT_EQ(reused.adds, fresh.adds);
    EXPECT_EQ(reused.removes, fresh.removes);
  }
}

// Parameterized: for random graphs and several c values, the returned
// community is a genuine local maximum — no single add or remove
// improves the fitness.
class LocalMaxPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LocalMaxPropertyTest, NoImprovingMoveExists) {
  Rng rng(GetParam());
  Graph g = ErdosRenyi(120, 0.08, &rng).value();
  if (g.num_edges() == 0) GTEST_SKIP();
  double c = ComputeCouplingConstant(g).value();
  NodeId seed = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
  auto result = GreedyLocalSearch(g, {seed}, LaplacianOptions(c)).value();

  SubsetStats stats = ComputeSubsetStats(g, result.community);
  FitnessParams params;
  params.kind = FitnessKind::kDirectedLaplacian;
  params.c = c;
  double fitness = EvaluateFitness(stats, params);
  EXPECT_NEAR(fitness, result.fitness, 1e-9);

  Community sorted = result.community;
  // Adds: every node adjacent to the community.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (std::binary_search(sorted.begin(), sorted.end(), v)) continue;
    size_t deg_in = 0;
    for (NodeId u : g.Neighbors(v)) {
      if (std::binary_search(sorted.begin(), sorted.end(), u)) ++deg_in;
    }
    if (deg_in == 0) continue;
    EXPECT_LE(FitnessGainAdd(stats, deg_in, g.Degree(v), params), 1e-9)
        << "add of " << v << " would improve";
  }
  // Removes.
  if (sorted.size() > 1) {
    for (NodeId v : sorted) {
      size_t deg_in = 0;
      for (NodeId u : g.Neighbors(v)) {
        if (std::binary_search(sorted.begin(), sorted.end(), u)) ++deg_in;
      }
      EXPECT_LE(FitnessGainRemove(stats, deg_in, g.Degree(v), params), 1e-9)
          << "remove of " << v << " would improve";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalMaxPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace oca
