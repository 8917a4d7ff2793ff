// The one CSR adjacency row kernel behind every spectral mat-vec.
//
// Every adjacency product in the library — the vector-level
// AdjacencyMatVec/AdjacencyMatVecMulti below, SpectralEngine::MatVec,
// and the engine's fused mat-vec+Rayleigh Lanczos step — runs through
// the row-range entry points below, and they share one row loop (the
// fused variant additionally accumulates sum_u y[u]*x[u] over its row
// range), so the products cannot drift apart.
//
// Operation order: each row's neighbor sum is four striped partial sums
// over the largest 4-multiple prefix of the row (lane j accumulates the
// terms at positions 4t + j), combined as (a0 + a2) + (a1 + a3), then
// the remaining 0-3 terms added in order. A weighted term is
// w[e] * x[nbr[e]], a separate multiply then add: the kernel's
// translation unit builds with -ffp-contract=off, so no build may fuse
// the pair into an FMA. Together with MatVecBlockRows depending on n
// alone, this fixed order is what makes every spectral result — and
// with it RecursiveHierarchy::Digest() — a pure function of the graph
// and the vector, independent of thread count, backend and whether the
// target has FMA.
//
// Multi-vector (SpMM): AdjacencyMatVecMultiRows computes k products in
// ONE sweep over offsets/neighbors. Vectors are interleaved node-major
// (column j of node v at x[v * k + j]) so each edge visit is one
// contiguous k-wide strip. Each column keeps the four striped
// accumulators, the combine and the tail above, so column j is
// bit-identical to a single-vector call on that column for every k.
//
// Contract (checked, violations abort): x and y hold
// graph.num_nodes() entries (times k for the multi variants, with
// 1 <= k <= kMaxMatVecBatch), do not alias, and begin <= end <= n.
// Aliasing x == y cannot work even in principle — y[u] is written
// while x[v] for v > u is still being read.

#ifndef OCA_SPECTRAL_CSR_MATVEC_H_
#define OCA_SPECTRAL_CSR_MATVEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace oca {

/// Widest batch the multi-vector (SpMM) entry points accept. Callers
/// with more right-hand sides chunk them kMaxMatVecBatch at a time.
inline constexpr size_t kMaxMatVecBatch = 8;

/// There is one kernel and nothing chooses between kernels. bench/e2e
/// still records a kernel name and an auto flag in its host context, so
/// CsrKernelKind and each of the four functions below stay, answering
/// "portable" and false, only until the next bench/e2e re-baseline
/// drops them (ROADMAP.md).
enum class CsrKernelKind { kPortable = 0 };
inline const char* CsrKernelName(CsrKernelKind) { return "portable"; }
inline CsrKernelKind ActiveCsrKernel() { return CsrKernelKind::kPortable; }
inline CsrKernelKind CsrKernelFor(const Graph&) {
  return CsrKernelKind::kPortable;
}
inline bool CsrKernelIsAuto() { return false; }

/// y[u] = sum_{v in N(u)} x[v] for u in [begin, end): one block of
/// rows of the adjacency mat-vec. See the contract above.
void AdjacencyMatVecRows(const Graph& graph, size_t begin, size_t end,
                         const double* x, double* y);

/// AdjacencyMatVecRows plus the block's Rayleigh partial: returns
/// sum_{u in [begin, end)} y[u] * x[u], accumulated in row order. The
/// fused pass is what the engine's Lanczos step runs — one CSR
/// traversal yields both the product and the alpha coefficient.
double AdjacencyMatVecRowsFused(const Graph& graph, size_t begin, size_t end,
                                const double* x, double* y);

/// Multi-vector (SpMM) rows: y_j[u] = sum_{v in N(u)} x_j[v] for all k
/// interleaved columns j in one CSR sweep. x and y hold n * k entries
/// in node-major layout (column j of node v at x[v * k + j]);
/// 1 <= k <= kMaxMatVecBatch. Column j is bit-identical to a
/// single-vector AdjacencyMatVecRows call on that column.
void AdjacencyMatVecMultiRows(const Graph& graph, size_t begin, size_t end,
                              const double* x, double* y, size_t k);

// Vector-level products over the whole graph, with their own checked
// contract: x holds exactly graph.num_nodes() entries (times k), y is
// not null and does not alias x, and y is resized to fit (previous
// contents are overwritten).

/// y = A x for the graph's adjacency matrix (y is resized to n).
void AdjacencyMatVec(const Graph& graph, const std::vector<double>& x,
                     std::vector<double>* y);

/// Y = A X for k interleaved right-hand sides in ONE CSR sweep
/// (x.size() == n * k, node-major: column j of node v at x[v*k + j]).
/// y is resized to n * k. Column j is bit-identical to AdjacencyMatVec
/// on that column.
void AdjacencyMatVecMulti(const Graph& graph, const std::vector<double>& x,
                          std::vector<double>* y, size_t k);

/// Deterministic row-block width for an n-node mat-vec: a pure
/// function of n alone (never of thread count), so the block partition
/// — and with it the fixed-block alpha reduction order — is identical
/// across serial and pooled execution. Small graphs get one block (no
/// partition overhead); large graphs get enough blocks for parallel
/// load balance, each sized to keep its y-range and row metadata
/// cache-resident.
size_t MatVecBlockRows(size_t n);

namespace internal {

/// Aborts with a diagnostic. Kernel preconditions are enforced in
/// every build type: the checks are O(1) against O(degree) work, and a
/// silently aliased mat-vec produces garbage eigenvalues that are far
/// more expensive to debug than an abort at the call site.
[[noreturn]] void KernelContractViolation(const char* what);

}  // namespace internal

}  // namespace oca

#endif  // OCA_SPECTRAL_CSR_MATVEC_H_
