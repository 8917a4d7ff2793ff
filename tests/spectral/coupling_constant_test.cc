// The known minimum eigenvalue of small fixtures (ExtremeEigenTest) and
// the coupling constant c = -1/lambda_min (CouplingConstantTest).

#include <gtest/gtest.h>

#include <cmath>

#include "gen/erdos_renyi.h"
#include "spectral/spectral_engine.h"
#include "testing/test_graphs.h"
#include "util/random.h"

namespace oca {
namespace {

using testing::Clique;
using testing::Cycle;
using testing::Path5;
using testing::Star;

// lambda_min as the coupling solve resolves it, from a default engine.
CouplingResult MinEnd(const Graph& g) {
  SpectralEngine engine;
  return engine.CouplingConstant(g).value();
}

TEST(ExtremeEigenTest, CliqueSpectrum) {
  // K_n: lambda_min = -1.
  for (size_t n : {3u, 6u}) {
    EXPECT_NEAR(MinEnd(Clique(n)).lambda_min, -1.0, 1e-5) << "K" << n;
  }
}

TEST(ExtremeEigenTest, BipartiteSymmetricSpectrum) {
  // Star: bipartite, lambda_min = -lambda_max = -sqrt(L).
  EXPECT_NEAR(MinEnd(Star(16)).lambda_min, -4.0, 1e-5);
}

TEST(ExtremeEigenTest, EvenCycleIsBipartite) {
  EXPECT_NEAR(MinEnd(Cycle(12)).lambda_min, -2.0, 1e-4);
}

TEST(ExtremeEigenTest, OddCycleKnownMinimum) {
  // C_n eigenvalues are 2cos(2 pi k / n); for n=5 the minimum is
  // 2cos(4 pi/5) = -1.618...
  EXPECT_NEAR(MinEnd(Cycle(5)).lambda_min, 2.0 * std::cos(4.0 * M_PI / 5.0),
              1e-5);
}

TEST(ExtremeEigenTest, PathSpectrum) {
  // P_n: lambda = 2cos(pi k/(n+1)); for n=5 min = 2cos(5 pi/6) = -sqrt(3).
  EXPECT_NEAR(MinEnd(Path5()).lambda_min, -std::sqrt(3.0), 1e-5);
}

TEST(ExtremeEigenTest, ReportsConvergence) {
  CouplingResult result = MinEnd(Clique(4));
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.iterations, 0u);
}

TEST(CouplingConstantTest, CliqueGivesOne) {
  // lambda_min(K_n) = -1 -> c = 1, clamped just below 1.
  double c = ComputeCouplingConstant(Clique(5)).value();
  EXPECT_GT(c, 0.999);
  EXPECT_LT(c, 1.0);
}

TEST(CouplingConstantTest, StarGivesInverseSqrt) {
  double c = ComputeCouplingConstant(Star(16)).value();
  EXPECT_NEAR(c, 0.25, 1e-4);
}

TEST(CouplingConstantTest, AlwaysInValidRange) {
  Rng rng(11);
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Graph g = ErdosRenyi(120, 0.08, &rng).value();
    if (g.num_edges() == 0) continue;
    double c = ComputeCouplingConstant(g).value();
    EXPECT_GT(c, 0.0);
    EXPECT_LT(c, 1.0);
  }
}

TEST(CouplingConstantTest, AdmissibilityIsTight) {
  // By the paper: c = -1/lambda_min is the largest admissible value. The
  // Gram matrix I + cA must be PSD at c and fail slightly above.
  // (Verified spectrally: lambda_min(I + cA) = 1 + c*lambda_min = 0.)
  const double lambda_min = MinEnd(Cycle(5)).lambda_min;
  double c = -1.0 / lambda_min;
  EXPECT_NEAR(1.0 + c * lambda_min, 0.0, 1e-9);
}

}  // namespace
}  // namespace oca
