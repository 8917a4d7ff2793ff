#include "core/fitness.h"

#include <gtest/gtest.h>

#include <cmath>

namespace oca {
namespace {

TEST(DirectedLaplacianTest, BoundaryCases) {
  EXPECT_DOUBLE_EQ(DirectedLaplacianFitness(0, 0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(DirectedLaplacianFitness(1, 0, 0.5), 1.0);
}

TEST(DirectedLaplacianTest, MatchesClosedFormForSmallSets) {
  // s=2, ein=1: L = 2 - sqrt(2) + 2c(1 - 0/sqrt(2)) = 2 - sqrt(2) + 2c.
  double c = 0.4;
  EXPECT_NEAR(DirectedLaplacianFitness(2, 1, c), 2.0 - std::sqrt(2.0) + 2 * c,
              1e-12);
  // s=3, ein=3 (triangle): L = 3 - sqrt(6) + 6c(1 - 1/sqrt(6)).
  EXPECT_NEAR(DirectedLaplacianFitness(3, 3, c),
              3.0 - std::sqrt(6.0) + 6.0 * c * (1.0 - 1.0 / std::sqrt(6.0)),
              1e-12);
}

TEST(DirectedLaplacianTest, IndependentSetsPlateau) {
  // Paper Example 2: phi of an independent set is s; its directed
  // Laplacian s - sqrt(s(s-1)) tends to 1/2 — no growth incentive.
  double c = 0.5;
  double prev = DirectedLaplacianFitness(2, 0, c);
  for (size_t s = 3; s < 100; ++s) {
    double cur = DirectedLaplacianFitness(s, 0, c);
    EXPECT_LT(cur, prev) << "independent-set fitness must decrease";
    prev = cur;
  }
  EXPECT_NEAR(prev, 0.5, 0.01);
}

TEST(DirectedLaplacianTest, CliquesKeepGrowing) {
  // For cliques (ein = s(s-1)/2) the fitness grows ~linearly in s: the
  // paper's motivation that well-connected sets are rewarded.
  double c = 0.5;
  double prev = DirectedLaplacianFitness(2, 1, c);
  for (size_t s = 3; s <= 60; ++s) {
    double cur = DirectedLaplacianFitness(s, s * (s - 1) / 2, c);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST(DirectedLaplacianTest, MonotoneInInternalEdges) {
  double c = 0.3;
  for (size_t s : {3u, 10u, 40u}) {
    for (size_t ein = 1; ein < s * (s - 1) / 2; ++ein) {
      EXPECT_GT(DirectedLaplacianFitness(s, ein, c),
                DirectedLaplacianFitness(s, ein - 1, c));
    }
  }
}

TEST(DirectedLaplacianTest, StrongerCouplingSharpensContrast) {
  // Larger c widens the gap between clique and sparse-set fitness
  // (paper: "larger values of c make it easier to distinguish
  // communities").
  size_t s = 20;
  double gap_small = DirectedLaplacianFitness(s, 190, 0.2) -
                     DirectedLaplacianFitness(s, 20, 0.2);
  double gap_large = DirectedLaplacianFitness(s, 190, 0.8) -
                     DirectedLaplacianFitness(s, 20, 0.8);
  EXPECT_GT(gap_large, gap_small);
}

TEST(LfkFitnessTest, KnownValues) {
  // kin = 2*ein. alpha=1: f = kin/(kin+kout).
  EXPECT_DOUBLE_EQ(LfkFitness(3, 2, 1.0), 6.0 / 8.0);
  EXPECT_DOUBLE_EQ(LfkFitness(0, 5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(LfkFitness(0, 0, 1.0), 0.0);
  // alpha=2 penalizes the denominator harder.
  EXPECT_DOUBLE_EQ(LfkFitness(3, 2, 2.0), 6.0 / 64.0);
}

TEST(SubsetStatsTest, EoutArithmetic) {
  SubsetStats stats;
  stats.size = 4;
  stats.ein = 3;
  stats.volume = 14;
  EXPECT_EQ(stats.Eout(), 8u);
}

TEST(EvaluateFitnessTest, DispatchMatchesDirectCalls) {
  SubsetStats stats;
  stats.size = 5;
  stats.ein = 7;
  stats.volume = 20;

  FitnessParams params;
  params.kind = FitnessKind::kDirectedLaplacian;
  params.c = 0.35;
  EXPECT_DOUBLE_EQ(EvaluateFitness(stats, params),
                   DirectedLaplacianFitness(5, 7, 0.35));

  params.kind = FitnessKind::kLfk;
  params.alpha = 1.2;
  EXPECT_DOUBLE_EQ(EvaluateFitness(stats, params),
                   LfkFitness(7, stats.Eout(), 1.2));

  params.kind = FitnessKind::kRawPhi;
  params.c = 0.35;
  EXPECT_DOUBLE_EQ(EvaluateFitness(stats, params), 5 + 2 * 0.35 * 7);

  params.kind = FitnessKind::kConductanceLike;
  EXPECT_DOUBLE_EQ(EvaluateFitness(stats, params), 7.0 / (7.0 + 6.0));
}

TEST(FitnessGainTest, AddMatchesFiniteDifference) {
  FitnessParams params;
  params.kind = FitnessKind::kDirectedLaplacian;
  params.c = 0.45;
  SubsetStats stats{10, 22, 60};
  // Candidate with 4 in-neighbors, degree 9.
  SubsetStats after{11, 26, 69};
  EXPECT_NEAR(FitnessGainAdd(stats, 4, 9, params),
              EvaluateFitness(after, params) - EvaluateFitness(stats, params),
              1e-12);
}

TEST(FitnessGainTest, RemoveInvertsAdd) {
  FitnessParams params;
  params.kind = FitnessKind::kDirectedLaplacian;
  params.c = 0.45;
  SubsetStats before{10, 22, 60};
  double gain_add = FitnessGainAdd(before, 4, 9, params);
  SubsetStats after{11, 26, 69};
  double gain_remove = FitnessGainRemove(after, 4, 9, params);
  EXPECT_NEAR(gain_add, -gain_remove, 1e-12);
}

TEST(FitnessGainTest, WeightedAddToleratesSummationOrder) {
  // A candidate's weighted deg-in is summed in the order members joined,
  // its weighted degree in neighbour order: with every neighbour inside S
  // the two can differ by an ulp, deg-in on the high side.
  FitnessParams params;
  params.kind = FitnessKind::kDirectedLaplacian;
  params.c = 0.45;
  params.use_weights = true;
  SubsetStats stats{10, 22, 60, 5.5, 14.0};
  const double w_deg_in = 0.1 + 0.2 + 0.3;
  const double w_deg = 0.3 + 0.2 + 0.1;
  ASSERT_GT(w_deg_in, w_deg);
  EXPECT_NEAR(WeightedFitnessGainAdd(stats, w_deg_in, w_deg, params),
              WeightedFitnessGainAdd(stats, w_deg, w_deg, params), 1e-12);
}

TEST(FitnessKindNameTest, AllNamed) {
  EXPECT_EQ(FitnessKindName(FitnessKind::kDirectedLaplacian),
            "directed_laplacian");
  EXPECT_EQ(FitnessKindName(FitnessKind::kRawPhi), "raw_phi");
  EXPECT_EQ(FitnessKindName(FitnessKind::kConductanceLike),
            "conductance_like");
  EXPECT_EQ(FitnessKindName(FitnessKind::kLfk), "lfk");
}

// Property sweep: the raw-phi fitness is strictly monotone in s (the
// paper's reason to reject it), while the directed Laplacian is not.
class RawPhiMonotoneTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RawPhiMonotoneTest, PhiAlwaysGrowsOnAdd) {
  size_t s = GetParam();
  FitnessParams params;
  params.kind = FitnessKind::kRawPhi;
  params.c = 0.5;
  SubsetStats stats{s, s, 4 * s};
  // Even a candidate with zero in-neighbors increases phi.
  EXPECT_GT(FitnessGainAdd(stats, 0, 4, params), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RawPhiMonotoneTest,
                         ::testing::Values(1, 2, 5, 10, 50, 200));

}  // namespace
}  // namespace oca
