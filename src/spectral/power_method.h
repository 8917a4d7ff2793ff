// Spectral iteration primitives on the adjacency matrix of a Graph, and
// the options/result types shared by every spectral entry point.
//
// The adjacency matrix is never materialized: the mat-vec y = A x walks
// CSR neighbor lists, so one iteration costs O(n + m).
//
// DominantEigenpair is an API-compatible thin wrapper over
// spectral/spectral_engine.h, which replaced the original shifted power
// iteration with a Krylov (Lanczos) solver: same contract, far fewer
// mat-vecs near a small spectral gap.

#ifndef OCA_SPECTRAL_POWER_METHOD_H_
#define OCA_SPECTRAL_POWER_METHOD_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "spectral/csr_matvec.h"
#include "util/result.h"

namespace oca {

/// Largest coupling constant the pipeline accepts. The admissible range
/// is 0 < c <= -1/lambda_min, and lambda_min <= -1 for any graph with an
/// edge, so c < 1 always holds EXCEPT at the boundary: a triangle (or
/// any graph whose adjacency lambda_min is exactly -1) yields
/// -1/lambda_min = 1.0. The fitness treats c = 1 as degenerate, so every
/// path that produces or accepts a coupling constant — supplied options,
/// the engine's spectral resolution, and hierarchy resolution sweeps —
/// clamps/validates against this one bound instead of hand-rolling its
/// own epsilon.
inline constexpr double kMaxCouplingConstant = 1.0 - 1e-9;

/// Clamps a coupling value to the shared admissible bound. Use wherever
/// a computed c could touch 1.0 (e.g. lambda_min == -1 exactly); the
/// clamped value is what must be recorded/reported, so the clamp is
/// explicit in results rather than hidden in a solver.
inline double ClampCouplingToAdmissible(double c) {
  return std::min(c, kMaxCouplingConstant);
}

/// Convergence controls for spectral iterations.
struct PowerMethodOptions {
  /// Iteration (mat-vec) cap. The coupling constant c = -1/lambda_min
  /// only needs a few significant digits, so the default favors speed;
  /// raise it (and lower `tolerance`) for spectral analyses that need
  /// tight eigenpairs.
  size_t max_iterations = 300;
  /// Eigenpair tolerance: stop when the eigenvalue estimate is stable at
  /// this relative level (the Ritz residual is additionally bounded by
  /// sqrt(tolerance) so the returned eigenvector is consistent).
  double tolerance = 1e-7;
  /// Target relative error of the coupling constant for
  /// ComputeCouplingConstant and the engine's coupling path. c feeds the
  /// fitness as a multiplicative weight, so ~4-5 significant digits
  /// (default) are plenty; this is deliberately much looser than
  /// `tolerance`, which is what made the seed's fixed-tolerance loop the
  /// pipeline's hottest path.
  double coupling_tolerance = 2e-5;
  uint64_t seed = 0x5EED5EEDull;  // random start vector
};

/// Outcome of an eigenpair solve.
struct EigenEstimate {
  double eigenvalue = 0.0;
  std::vector<double> eigenvector;  // unit 2-norm
  size_t iterations = 0;
  bool converged = false;
};

// The row-range kernels (AdjacencyMatVecRows and its fused variant)
// live in spectral/csr_matvec.h, re-exported via the include above;
// the wrappers below add the vector-level conveniences.
//
// Contract shared by every entry point here (checked in all build
// types; violations abort with a diagnostic, see
// internal::KernelContractViolation):
//   * x must hold exactly graph.num_nodes() entries.
//   * y must not alias x (`y != &x`): y[u] is written while x entries
//     are still being read, so an aliased call cannot produce A x even
//     in principle.
//   * y is resized to graph.num_nodes(); previous contents are
//     overwritten.

/// y = A x for the graph's adjacency matrix (y is resized to n).
void AdjacencyMatVec(const Graph& graph, const std::vector<double>& x,
                     std::vector<double>* y);

/// Y = A X for k interleaved right-hand sides in ONE CSR sweep
/// (x.size() == n * k, node-major: column j of node v at x[v*k + j]).
/// y is resized to n * k. Column j is bit-identical to AdjacencyMatVec
/// on that column; see the multi-vector contract in csr_matvec.h.
void AdjacencyMatVecMulti(const Graph& graph, const std::vector<double>& x,
                          std::vector<double>* y, size_t k);

/// Rayleigh quotient x'Ax / x'x for the adjacency matrix, computed in
/// one fused CSR pass into `workspace` (resized to n, contents
/// overwritten — same contract as AdjacencyMatVec's y). The workspace
/// overload is the allocation-free form for call sites that evaluate
/// quotients in a loop: after the first call the buffer is reused,
/// never reallocated.
double RayleighQuotient(const Graph& graph, const std::vector<double>& x,
                        std::vector<double>* workspace);

/// Convenience overload that allocates a fresh workspace per call.
double RayleighQuotient(const Graph& graph, const std::vector<double>& x);

/// Dominant (largest algebraic, = spectral radius) eigenpair of A.
/// Errors on an empty or edgeless graph.
Result<EigenEstimate> DominantEigenpair(const Graph& graph,
                                        const PowerMethodOptions& options = {});

}  // namespace oca

#endif  // OCA_SPECTRAL_POWER_METHOD_H_
