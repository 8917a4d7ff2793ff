// The one CSR adjacency row kernel behind every spectral mat-vec.
//
// Every adjacency product in the library — the free AdjacencyMatVec
// wrappers, SpectralEngine::MatVec, and the engine's fused
// mat-vec+Rayleigh Lanczos step — runs through the two row-range
// entry points below. There is deliberately no second copy of the row
// loop anywhere: the plain and fused variants share one implementation
// (the fused variant additionally accumulates sum_u y[u]*x[u] over its
// row range), so the products cannot drift apart.
//
// SIMD: the kernel is vectorized with a fixed four-accumulator layout.
// Each row's neighbor sum is computed as four striped partial sums over
// the vectorizable body (lane j accumulates x[nbr[base + 4t + j]]),
// combined as (a0 + a2) + (a1 + a3), followed by a sequential scalar
// tail. Both implementations — the portable C++ one (four independent
// dependency chains the compiler can keep in registers or auto-
// vectorize) and the AVX2 gather one (built when OCA_ENABLE_AVX2 is on
// and the compiler supports -mavx2, selected at runtime only on CPUs
// that report AVX2) — follow exactly this operation order, so their
// results are BIT-IDENTICAL. That is what lets the deterministic-
// parallel contract (RecursiveHierarchy::Digest() invariance across
// thread counts) extend across kernel variants: switching kernels
// never changes a single bit of any spectral result.
//
// Multi-vector (SpMM): the AdjacencyMatVecMulti* entry points compute
// k products in ONE sweep over offsets/neighbors. Vectors are
// interleaved node-major (column j of node v at x[v * k + j]) so each
// edge visit is one contiguous k-wide strip; on AVX2 that strip is a
// plain vector load — the gather disappears entirely. Column j of the
// multi kernel is bit-identical to a single-vector call on that
// column, for every k and every kernel (the striped accumulation and
// combine order are kept per column — see csr_matvec_rows.h), so the
// digest pins extend across batch widths by construction.
//
// Dispatch: resolved once per process from the OCA_SIMD environment
// variable ("portable"/"avx2" force a kernel; "auto" or unset enables
// the per-graph heuristic) and the CPU's capabilities; SetCsrKernel /
// SetCsrKernelAuto override it (tests, benchmarks). In auto mode the
// kernel is chosen from the graph's mean row length — a constant of
// the graph, so the choice is made once per graph in effect: short
// community-graph rows run the portable chains (measured faster than
// gathers in PR 6), wide rows run AVX2. Either way results are
// bit-identical, so the heuristic can never affect a digest.
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

#include "graph/graph.h"

namespace oca {

/// Widest batch the multi-vector (SpMM) entry points accept. Callers
/// with more right-hand sides chunk them kMaxMatVecBatch at a time.
inline constexpr size_t kMaxMatVecBatch = 8;

/// The available CSR row-kernel implementations. All of them produce
/// bit-identical results; they differ only in speed.
enum class CsrKernelKind {
  kPortable = 0,  // unrolled four-accumulator C++, always available
  kAvx2 = 1,      // AVX2 gather; needs build flag + CPU support
};

/// Human-readable kernel name ("portable", "avx2") for logs/benches.
const char* CsrKernelName(CsrKernelKind kind);

/// True when `kind` was compiled in AND the running CPU supports it.
bool CsrKernelAvailable(CsrKernelKind kind);

/// The kernel a mat-vec on a typical (short-row) graph will use. First
/// call resolves the OCA_SIMD environment variable
/// ("portable" | "avx2" | "auto"/unset) against CsrKernelAvailable; an
/// unavailable request falls back to portable. In auto mode this
/// reports the heuristic's short-row answer (portable); per-graph
/// resolution is CsrKernelFor.
CsrKernelKind ActiveCsrKernel();

/// True when no kernel is forced (no OCA_SIMD override, no
/// SetCsrKernel) and dispatch runs the per-graph mean-row-length
/// heuristic.
bool CsrKernelIsAuto();

/// Forces the active kernel (falls back to portable when `kind` is
/// unavailable), disabling the auto heuristic, and returns what is
/// actually active now. Not synchronized with in-flight mat-vecs —
/// switch between solves only (tests and benchmarks do).
CsrKernelKind SetCsrKernel(CsrKernelKind kind);

/// Re-enables heuristic dispatch (the unforced default), overriding
/// any prior SetCsrKernel or OCA_SIMD resolution.
void SetCsrKernelAuto();

/// Mean row length at or above which the auto heuristic picks the AVX2
/// kernel (when available). PR 6 measured the portable chains winning
/// at mean degree ~20; gathers need substantially longer rows before
/// their wider loads amortize, hence the conservative threshold.
inline constexpr double kAvx2MeanRowThreshold = 32.0;

/// The heuristic's choice for a graph with the given mean row length:
/// kAvx2 iff mean_row >= kAvx2MeanRowThreshold and AVX2 is available.
/// Pure — exposed so the policy is unit-testable.
CsrKernelKind CsrKernelForMeanDegree(double mean_row);

/// The kernel a mat-vec over `graph` dispatches to right now: the
/// forced kernel if one is active, otherwise the heuristic applied to
/// the graph's mean row length (edges/nodes — O(1) from the CSR
/// spans, constant per graph).
CsrKernelKind CsrKernelFor(const Graph& graph);

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

/// Deterministic row-block width for an n-node mat-vec: a pure
/// function of n alone (never of thread count or kernel), so the block
/// partition — and with it the fixed-block alpha reduction order — is
/// identical across serial, pooled, and SIMD execution. Small graphs
/// get one block (no partition overhead); large graphs get enough
/// blocks for parallel load balance, each sized to keep its y-range
/// and row metadata cache-resident.
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
