// The multi-vector (SpMM) CSR kernel contract (spectral/csr_matvec.h):
// AdjacencyMatVecMulti computes k products in ONE adjacency sweep, and
// column j is BIT-IDENTICAL to the single-vector kernel applied to that
// column — across owned/mmap backends, ragged degree mixes, and every
// width 1..kMaxMatVecBatch.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "gen/erdos_renyi.h"
#include "graph/graph_builder.h"
#include "graph/mmap_graph.h"
#include "io/graph_serialize.h"
#include "spectral/csr_matvec.h"
#include "spectral/power_method.h"
#include "util/random.h"

namespace oca {
namespace {

std::vector<double> RandomVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.NextGaussian();
  return x;
}

/// Interleaves k column vectors into the node-major multi layout.
std::vector<double> Interleave(const std::vector<std::vector<double>>& cols) {
  const size_t k = cols.size();
  const size_t n = cols.empty() ? 0 : cols[0].size();
  std::vector<double> x(n * k);
  for (size_t j = 0; j < k; ++j) {
    for (size_t i = 0; i < n; ++i) x[i * k + j] = cols[j][i];
  }
  return x;
}

/// Extracts column j from the node-major multi layout.
std::vector<double> Column(const std::vector<double>& y, size_t n, size_t k,
                           size_t j) {
  std::vector<double> col(n);
  for (size_t i = 0; i < n; ++i) col[i] = y[i * k + j];
  return col;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Ragged degree mix: a full hub row, degree-2 chain rows, a clique of
/// uniform mid-size rows, and near-isolated tails — every body/tail
/// split of the 4-wide striped loop.
Graph RaggedGraph() {
  const NodeId n = 160;
  GraphBuilder builder(n);
  for (NodeId v = 1; v < n; ++v) builder.AddEdge(0, v);
  for (NodeId v = 1; v + 1 < 60; ++v) builder.AddEdge(v, v + 1);
  for (NodeId u = 100; u < 124; ++u) {
    for (NodeId v = u + 1; v < 124; ++v) builder.AddEdge(u, v);
  }
  return builder.Build().value();
}

// --------------------------------------------------------------------
// Multi-vector kernel: column j == the single-vector call, bit for bit.
// --------------------------------------------------------------------

TEST(MatVecMultiTest, ColumnsMatchSingleCallsBitIdentical) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    Graph g = ErdosRenyi(300 + 100 * seed, 0.03, &rng).value();
    const size_t n = g.num_nodes();
    for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                     size_t{8}}) {
      std::vector<std::vector<double>> cols(k);
      for (size_t j = 0; j < k; ++j) {
        cols[j] = RandomVector(n, seed * 100 + j);
      }
      const std::vector<double> x = Interleave(cols);
      std::vector<double> y;
      AdjacencyMatVecMulti(g, x, &y, k);
      ASSERT_EQ(y.size(), n * k);
      for (size_t j = 0; j < k; ++j) {
        std::vector<double> single;
        AdjacencyMatVec(g, cols[j], &single);
        EXPECT_TRUE(BitIdentical(Column(y, n, k, j), single))
            << "k " << k << " col " << j << " seed " << seed;
      }
    }
  }
}

TEST(MatVecMultiTest, RaggedRowsMatchAcrossWidthsAndKernels) {
  Graph g = RaggedGraph();
  const size_t n = g.num_nodes();
  for (size_t k = 1; k <= kMaxMatVecBatch; ++k) {
    std::vector<std::vector<double>> cols(k);
    for (size_t j = 0; j < k; ++j) cols[j] = RandomVector(n, 40 + j);
    const std::vector<double> x = Interleave(cols);

    // Single-vector reference per column.
    std::vector<std::vector<double>> refs(k);
    for (size_t j = 0; j < k; ++j) AdjacencyMatVec(g, cols[j], &refs[j]);

    std::vector<double> y;
    AdjacencyMatVecMulti(g, x, &y, k);
    for (size_t j = 0; j < k; ++j) {
      EXPECT_TRUE(BitIdentical(Column(y, n, k, j), refs[j]))
          << "k " << k << " col " << j;
    }
  }
}

TEST(MatVecMultiTest, MmapBackendMatchesOwnedBitIdentical) {
  Rng rng(17);
  Graph owned = ErdosRenyi(400, 0.03, &rng).value();
  const std::string path = ::testing::TempDir() + "/oca_matvec_multi.ocag";
  ASSERT_TRUE(WriteGraphBinaryFile(owned, path).ok());
  auto mapped = OpenMmapGraph(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const Graph& mm = mapped.value();
  ASSERT_TRUE(mm.is_mapped());

  const size_t n = owned.num_nodes();
  for (size_t k : {size_t{2}, size_t{4}, size_t{8}}) {
    std::vector<std::vector<double>> cols(k);
    for (size_t j = 0; j < k; ++j) cols[j] = RandomVector(n, 70 + j);
    const std::vector<double> x = Interleave(cols);
    std::vector<double> y_owned, y_mapped;
    AdjacencyMatVecMulti(owned, x, &y_owned, k);
    AdjacencyMatVecMulti(mm, x, &y_mapped, k);
    EXPECT_TRUE(BitIdentical(y_owned, y_mapped)) << "k " << k;
  }
}

}  // namespace
}  // namespace oca
