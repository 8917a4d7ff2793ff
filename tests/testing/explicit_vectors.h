// The virtual vector representation of a graph (paper Section II),
// built explicitly as a test oracle.
//
// Lovász (1979): a collection of unit vectors {v_1..v_n} with
// <v_i, v_j> = c for every edge {i,j} and 0 for every non-edge is a
// *virtual vector representation* of G, valid for any 0 <= c < 1 with
// c <= -1/lambda_min(A). A subset S maps to the sum of its vectors, whose
// squared length is
//
//   phi(S) = ||sum_{i in S} v_i||^2 = |S| + 2 c Ein(S),
//
// because each of the |S| unit vectors contributes 1 and each internal
// edge contributes 2c. The library never materializes vectors (phi is
// evaluated from |S| and Ein(S) alone, FitnessKind::kRawPhi); this
// O(n^2)-memory construction (Cholesky of the Gram matrix I + cA) checks
// that closed form against real geometry, and a c the Cholesky rejects
// is one the paper's admissibility bound rules out.

#ifndef OCA_TESTS_TESTING_EXPLICIT_VECTORS_H_
#define OCA_TESTS_TESTING_EXPLICIT_VECTORS_H_

#include <cmath>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/result.h"

namespace oca::testing {

/// Explicit vector representation: row i is the vector of node i, in a
/// space of dimension n.
struct ExplicitVectors {
  size_t dimension = 0;
  std::vector<std::vector<double>> rows;  // n x dimension

  /// Squared length of sum of the given nodes' vectors.
  double SumSquaredLength(const std::vector<NodeId>& nodes) const {
    std::vector<double> sum(dimension, 0.0);
    for (NodeId v : nodes) {
      for (size_t d = 0; d < dimension; ++d) sum[d] += rows[v][d];
    }
    double total = 0.0;
    for (double x : sum) total += x * x;
    return total;
  }

  /// Inner product <v_a, v_b>.
  double InnerProduct(NodeId a, NodeId b) const {
    double total = 0.0;
    for (size_t d = 0; d < dimension; ++d) total += rows[a][d] * rows[b][d];
    return total;
  }
};

/// Builds explicit vectors by Cholesky-factorizing the Gram matrix
/// M = I + c*A. Requires M positive semi-definite, i.e. c <= -1/lambda_min;
/// errors otherwise (this is exactly the paper's admissibility bound).
/// O(n^3) time, O(n^2) memory: test-scale only.
inline Result<ExplicitVectors> BuildExplicitVectors(const Graph& graph,
                                                    double c) {
  const size_t n = graph.num_nodes();
  if (c < 0.0 || c >= 1.0) {
    return Status::InvalidArgument("c must satisfy 0 <= c < 1");
  }

  // Gram matrix M = I + cA (dense).
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
  for (NodeId u = 0; u < n; ++u) {
    m[u][u] = 1.0;
    for (NodeId v : graph.Neighbors(u)) m[u][v] = c;
  }

  // Cholesky with a small tolerance: M is PSD exactly when c is
  // admissible; pivots below -tol indicate c > -1/lambda_min.
  constexpr double kTol = 1e-9;
  ExplicitVectors out;
  out.dimension = n;
  out.rows.assign(n, std::vector<double>(n, 0.0));
  auto& l = out.rows;  // row i = L's row i: vector of node i
  for (size_t j = 0; j < n; ++j) {
    double diag = m[j][j];
    for (size_t k = 0; k < j; ++k) diag -= l[j][k] * l[j][k];
    if (diag < -kTol) {
      return Status::FailedPrecondition(
          "Gram matrix not PSD: c=" + std::to_string(c) +
          " exceeds -1/lambda_min");
    }
    diag = diag < 0.0 ? 0.0 : diag;
    double root = std::sqrt(diag);
    l[j][j] = root;
    for (size_t i = j + 1; i < n; ++i) {
      double sum = m[i][j];
      for (size_t k = 0; k < j; ++k) sum -= l[i][k] * l[j][k];
      l[i][j] = root > kTol ? sum / root : 0.0;
    }
  }
  return out;
}

}  // namespace oca::testing

#endif  // OCA_TESTS_TESTING_EXPLICIT_VECTORS_H_
