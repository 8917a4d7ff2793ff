#include "core/vector_model.h"

#include <gtest/gtest.h>

#include "spectral/spectral_engine.h"
#include "testing/test_graphs.h"

namespace oca {
namespace {

using testing::Clique;
using testing::Cycle;
using testing::KarateClub;
using testing::Path5;
using testing::Triangle;

TEST(PhiFromStatsTest, IndependentAndCompleteSets) {
  // Paper Example 2: independent set of size k has phi = k; complete
  // subgraph K_k has phi = k + 2c * k(k-1)/2 = ck^2 + (1-c)k.
  double c = 0.6;
  EXPECT_DOUBLE_EQ(PhiFromStats(7, 0, c), 7.0);
  size_t k = 9;
  EXPECT_DOUBLE_EQ(PhiFromStats(k, k * (k - 1) / 2, c),
                   c * k * k + (1 - c) * k);
}

TEST(ExplicitVectorsTest, UnitLengthAndPairwiseProducts) {
  Graph g = Triangle();
  double c = 0.4;
  auto vecs = BuildExplicitVectors(g, c).value();
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_NEAR(vecs.InnerProduct(v, v), 1.0, 1e-9) << "unit vectors";
  }
  // All pairs are edges in K3: inner product c.
  EXPECT_NEAR(vecs.InnerProduct(0, 1), c, 1e-9);
  EXPECT_NEAR(vecs.InnerProduct(1, 2), c, 1e-9);
  EXPECT_NEAR(vecs.InnerProduct(0, 2), c, 1e-9);
}

TEST(ExplicitVectorsTest, NonEdgesAreOrthogonal) {
  Graph g = Path5();
  double c = 0.3;
  auto vecs = BuildExplicitVectors(g, c).value();
  EXPECT_NEAR(vecs.InnerProduct(0, 2), 0.0, 1e-9);
  EXPECT_NEAR(vecs.InnerProduct(0, 4), 0.0, 1e-9);
  EXPECT_NEAR(vecs.InnerProduct(1, 2), c, 1e-9);
}

TEST(ExplicitVectorsTest, PhiFormulaMatchesGeometry) {
  // The load-bearing identity: ||sum v_i||^2 == s + 2c*Ein for every
  // subset. Verify on several graphs and subsets.
  struct Case {
    Graph graph;
    std::vector<NodeId> subset;
    size_t ein;
  };
  std::vector<Case> cases;
  cases.push_back({Triangle(), {0, 1, 2}, 3});
  cases.push_back({Triangle(), {0, 1}, 1});
  cases.push_back({Path5(), {0, 1, 2}, 2});
  cases.push_back({Path5(), {0, 2, 4}, 0});
  cases.push_back({Clique(5), {0, 1, 2, 3}, 6});
  cases.push_back({Cycle(6), {0, 1, 3, 4}, 2});

  for (const auto& [graph, subset, ein] : cases) {
    double c_max = ComputeCouplingConstant(graph).value();
    // Use a slightly smaller c to stay strictly PSD for Cholesky.
    double c = c_max * 0.95;
    auto vecs = BuildExplicitVectors(graph, c).value();
    EXPECT_NEAR(vecs.SumSquaredLength(subset),
                PhiFromStats(subset.size(), ein, c), 1e-8);
  }
}

TEST(ExplicitVectorsTest, AdmissibilityBoundaryEnforced) {
  // c > -1/lambda_min must fail (Gram matrix not PSD). For C5,
  // -1/lambda_min ~ 0.618.
  Graph g = Cycle(5);
  double c_max = ComputeCouplingConstant(g).value();
  EXPECT_TRUE(BuildExplicitVectors(g, c_max * 0.99).ok());
  auto too_big = BuildExplicitVectors(g, std::min(0.999, c_max * 1.05));
  EXPECT_FALSE(too_big.ok());
  EXPECT_TRUE(too_big.status().IsFailedPrecondition());
}

TEST(ExplicitVectorsTest, InvalidCRejected) {
  Graph g = Triangle();
  EXPECT_FALSE(BuildExplicitVectors(g, -0.1).ok());
  EXPECT_FALSE(BuildExplicitVectors(g, 1.0).ok());
}

TEST(ExplicitVectorsTest, KarateClubSpotCheck) {
  Graph g = KarateClub();
  double c = ComputeCouplingConstant(g).value() * 0.9;
  auto vecs = BuildExplicitVectors(g, c).value();
  // Edge and non-edge inner products.
  EXPECT_NEAR(vecs.InnerProduct(0, 1), c, 1e-7);   // edge
  EXPECT_NEAR(vecs.InnerProduct(0, 33), 0.0, 1e-7);  // famous non-edge
}

}  // namespace
}  // namespace oca
