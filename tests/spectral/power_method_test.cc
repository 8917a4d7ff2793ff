#include "spectral/power_method.h"

#include <gtest/gtest.h>

#include <cmath>

#include "testing/test_graphs.h"

namespace oca {
namespace {

using testing::Clique;
using testing::Cycle;
using testing::Path5;
using testing::Star;
using testing::Triangle;

TEST(AdjacencyMatVecTest, MatchesManualComputation) {
  Graph g = Path5();  // 0-1-2-3-4
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y;
  AdjacencyMatVec(g, x, &y);
  // y[i] = sum of x over neighbors.
  EXPECT_EQ(y, (std::vector<double>{2, 4, 6, 8, 4}));
}

TEST(RayleighQuotientTest, EigenvectorGivesEigenvalue) {
  Graph g = Triangle();
  std::vector<double> ones = {1, 1, 1};  // eigenvector of K3, lambda = 2
  EXPECT_NEAR(RayleighQuotient(g, ones), 2.0, 1e-12);
}

TEST(DominantEigenpairTest, CliqueHasKnownSpectrum) {
  // K_n: lambda_max = n-1.
  for (size_t n : {3u, 5u, 8u}) {
    auto est = DominantEigenpair(Clique(n)).value();
    EXPECT_TRUE(est.converged);
    EXPECT_NEAR(est.eigenvalue, static_cast<double>(n - 1), 1e-6) << "K" << n;
  }
}

TEST(DominantEigenpairTest, StarHasSqrtLeaves) {
  // Star with L leaves: lambda_max = sqrt(L).
  auto est = DominantEigenpair(Star(9)).value();
  EXPECT_NEAR(est.eigenvalue, 3.0, 1e-6);
}

TEST(DominantEigenpairTest, CycleHasLambdaTwo) {
  auto est = DominantEigenpair(Cycle(10)).value();
  EXPECT_NEAR(est.eigenvalue, 2.0, 1e-4);
}

TEST(DominantEigenpairTest, EigenvectorSatisfiesDefinition) {
  Graph g = testing::KarateClub();
  PowerMethodOptions tight;
  tight.tolerance = 1e-10;
  tight.max_iterations = 2000;
  auto est = DominantEigenpair(g, tight).value();
  ASSERT_TRUE(est.converged);
  // Check ||A x - lambda x|| is small.
  std::vector<double> y;
  AdjacencyMatVec(g, est.eigenvector, &y);
  double err = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    double r = y[i] - est.eigenvalue * est.eigenvector[i];
    err += r * r;
  }
  // The Rayleigh-quotient stop rule bounds the eigenvalue error ~tol but
  // the eigenvector residual only ~sqrt(tol-ish); 1e-3 is what the
  // default tolerance guarantees on this graph.
  EXPECT_LT(std::sqrt(err), 1e-3);
}

TEST(DominantEigenpairTest, PerronVectorIsPositive) {
  // For a connected graph the dominant eigenvector has one sign.
  auto est = DominantEigenpair(testing::KarateClub()).value();
  double sign = est.eigenvector[0] > 0 ? 1.0 : -1.0;
  for (double v : est.eigenvector) {
    EXPECT_GT(sign * v, 0.0);
  }
}

TEST(DominantEigenpairTest, EmptyGraphErrors) {
  Graph g;
  EXPECT_TRUE(DominantEigenpair(g).status().IsInvalidArgument());
}

TEST(DominantEigenpairTest, EdgelessGraphErrors) {
  Graph g = BuildGraph(4, {}).value();
  EXPECT_TRUE(DominantEigenpair(g).status().IsFailedPrecondition());
}

TEST(DominantEigenpairTest, DeterministicPerSeed) {
  Graph g = testing::TwoCliquesBridge();
  PowerMethodOptions opt;
  opt.seed = 99;
  auto a = DominantEigenpair(g, opt).value();
  auto b = DominantEigenpair(g, opt).value();
  EXPECT_EQ(a.eigenvalue, b.eigenvalue);
  EXPECT_EQ(a.iterations, b.iterations);
}

// The workspace overload is the allocation-free form: after the first
// call the buffer must be reused in place, never reallocated.
TEST(RayleighQuotientTest, WorkspaceOverloadReusesItsBuffer) {
  Graph g = Clique(6);
  std::vector<double> x = {1, -2, 3, -4, 5, -6};
  std::vector<double> workspace;
  const double first = RayleighQuotient(g, x, &workspace);
  ASSERT_EQ(workspace.size(), g.num_nodes());
  const double* data = workspace.data();
  const size_t capacity = workspace.capacity();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(RayleighQuotient(g, x, &workspace), first);
    EXPECT_EQ(workspace.data(), data) << "workspace was reallocated";
    EXPECT_EQ(workspace.capacity(), capacity);
  }
  // Both overloads compute the same quotient.
  EXPECT_EQ(RayleighQuotient(g, x), first);
}

// Contract checks (see spectral/csr_matvec.h) abort in every build
// type: a silently aliased or mis-sized mat-vec produces garbage
// eigenvalues far more expensive to debug than an abort here.
using MatVecContractDeathTest = ::testing::Test;

TEST(MatVecContractDeathTest, AliasedOutputAborts) {
  Graph g = Path5();
  std::vector<double> x = {1, 2, 3, 4, 5};
  EXPECT_DEATH(AdjacencyMatVec(g, x, &x), "contract violation");
}

TEST(MatVecContractDeathTest, SizeMismatchAborts) {
  Graph g = Path5();
  std::vector<double> x = {1, 2, 3};  // graph has 5 nodes
  std::vector<double> y;
  EXPECT_DEATH(AdjacencyMatVec(g, x, &y), "contract violation");
}

TEST(MatVecContractDeathTest, RayleighQuotientChecksItsArguments) {
  Graph g = Path5();
  std::vector<double> x = {1, 2, 3};  // wrong size
  EXPECT_DEATH(RayleighQuotient(g, x), "contract violation");
  std::vector<double> ok = {1, 2, 3, 4, 5};
  EXPECT_DEATH(RayleighQuotient(g, ok, &ok), "contract violation");
}

TEST(MatVecContractDeathTest, RowRangeOutOfBoundsAborts) {
  Graph g = Path5();
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y(5);
  EXPECT_DEATH(AdjacencyMatVecRows(g, 3, 2, x.data(), y.data()),
               "contract violation");
  EXPECT_DEATH(AdjacencyMatVecRows(g, 0, 6, x.data(), y.data()),
               "contract violation");
  EXPECT_DEATH(AdjacencyMatVecRows(g, 0, 5, x.data(), x.data()),
               "contract violation");
  EXPECT_DEATH(AdjacencyMatVecRows(g, 0, 5, nullptr, y.data()),
               "contract violation");
}

TEST(MatVecContractDeathTest, EmptyRowRangeNeedsNoBuffers) {
  Graph g = Path5();
  // begin == end: nothing is read or written; null buffers are fine.
  AdjacencyMatVecRows(g, 2, 2, nullptr, nullptr);
  EXPECT_EQ(AdjacencyMatVecRowsFused(g, 2, 2, nullptr, nullptr), 0.0);
}

}  // namespace
}  // namespace oca
