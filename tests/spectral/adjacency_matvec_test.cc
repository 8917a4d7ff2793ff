#include <gtest/gtest.h>

#include <vector>

#include "spectral/csr_matvec.h"
#include "testing/test_graphs.h"

namespace oca {
namespace {

using testing::Path5;

TEST(AdjacencyMatVecTest, MatchesManualComputation) {
  Graph g = Path5();  // 0-1-2-3-4
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y;
  AdjacencyMatVec(g, x, &y);
  // y[i] = sum of x over neighbors.
  EXPECT_EQ(y, (std::vector<double>{2, 4, 6, 8, 4}));
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
