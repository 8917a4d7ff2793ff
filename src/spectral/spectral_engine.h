// SpectralEngine: the shared, workspace-reusing eigensolver behind the
// one spectral quantity the OCA pipeline needs, the coupling constant
// c = -1/lambda_min of the paper's Section II.
//
// Why an engine instead of free functions: c is resolved once per OCA
// run, and the recursive hierarchy makes one run per subgraph it
// explores, so a single build solves many graphs. A fixed-tolerance
// eigenpair solve into fresh buffers would pay full price on each one;
// the engine does not:
//
//   * Workspaces (iteration vectors, reduction partials, recurrence
//     coefficients) are owned by the engine and reused across calls —
//     zero per-call allocation after warm-up.
//   * Results are cached per graph, so asking again about the same graph
//     costs no solve. No library path asks twice: the hierarchy drops
//     each subgraph's entry (`Forget`) once its run is done.
//   * Convergence is adaptive: the solver targets relative error in c
//     itself (c only needs a few significant digits — see
//     SpectralEngineOptions::coupling_tolerance) instead of iterating a
//     fixed eigenpair tolerance to exhaustion.
//
// Every solve starts from a random vector drawn from the configured seed
// alone, which is what the Lanczos error bounds assume and what makes a
// solve's result independent of the engine's history.
//
// Algorithm: a shift-free Lanczos (Krylov) recurrence on the adjacency
// matrix, tracking its minimum end only. One fused CSR pass per step
// produces both the mat-vec and the Rayleigh coefficient; the smallest
// Ritz value is found by Sturm-count bisection inside Gershgorin degree
// bounds (the cheap spectral-radius bound max-degree brackets every
// eigenvalue before any iteration), and the Ritz sequence — the optimal
// Rayleigh quotients over the growing Krylov space — is accelerated
// with Aitken-Delta^2 (Wynn-epsilon, first column) extrapolation, which
// both sharpens the reported value and supplies the stopping rule's
// error estimate. This reaches the spectral edge orders of magnitude
// faster than shifted power iteration when the edge gap is small (the
// common case on community graphs), which is what makes the adaptive
// "few significant digits of c" stop safe: the extrapolated value is
// typically *closer* to the true eigenvalue than the seed path's
// fixed-tolerance answer.
//
// The mat-vec is parallelized over util/thread_pool when the graph has
// at least two row blocks (MatVecBlockRows) and enough entries, with
// fixed-block reductions so results are bit-identical across thread
// counts.
//
// Thread-safety: an engine instance is NOT thread-safe; use one per
// thread or guard externally. Cached entries are keyed by Graph::id(),
// which copies and moves of a graph share and every new or reset graph
// renews, so a graph built where a dead one lived never reads the dead
// one's entry. `Forget` drops an entry to bound the cache.

#ifndef OCA_SPECTRAL_SPECTRAL_ENGINE_H_
#define OCA_SPECTRAL_SPECTRAL_ENGINE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "spectral/csr_matvec.h"
#include "util/result.h"

namespace oca {

class ThreadPool;

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

/// Caller-facing convergence controls of the coupling solve
/// (OcaOptions::power_method); ValueSolveOptionsFrom maps them onto
/// SpectralEngineOptions.
struct PowerMethodOptions {
  /// Step budget: a solve may take max(2 * max_iterations, 128) Lanczos
  /// steps (mat-vecs). c = -1/lambda_min only needs a few significant
  /// digits, so the default favors speed.
  size_t max_iterations = 300;
  /// Target relative error of the coupling constant. c feeds the fitness
  /// as a multiplicative weight, so ~4-5 significant digits (default)
  /// are plenty; iterating a fixed 1e-7 eigenpair tolerance to
  /// exhaustion is what made the seed's loop the pipeline's hottest
  /// path.
  double coupling_tolerance = 2e-5;
  uint64_t seed = 0x5EED5EEDull;  // random start vector
};

/// Engine-wide configuration. The tolerance is a target on the
/// *relative error of the reported value*, not on an eigenpair residual.
struct SpectralEngineOptions {
  /// Target relative error of the coupling constant c (equivalently of
  /// lambda_min). The paper's pipeline only consumes a few significant
  /// digits of c, so the default asks for ~4-5. Must stay in sync with
  /// PowerMethodOptions::coupling_tolerance so a held engine and the
  /// free-function wrappers resolve the same c by default.
  double coupling_tolerance = 2e-5;
  /// Hard cap on Lanczos steps (mat-vecs) per solve; the default is
  /// ValueSolveOptionsFrom's budget for a default PowerMethodOptions.
  size_t max_steps = 600;
  /// Seed for start vectors and breakdown restarts.
  uint64_t seed = 0x5EED5EEDull;
  /// Mat-vec worker threads (1 = serial, 0 = hardware concurrency).
  size_t num_threads = 1;
};

/// The one mapping from caller-facing PowerMethodOptions to engine
/// options, shared by every call site so the translation cannot drift:
/// the seed and coupling tolerance carry over, and the step budget is
/// max(2 * pm.max_iterations, 128) (the seed ran up to max_iterations
/// per power-method phase). `ValueSolveOptionsFrom(PowerMethodOptions{})`
/// equals `SpectralEngineOptions{}`.
SpectralEngineOptions ValueSolveOptionsFrom(const PowerMethodOptions& pm);

/// Outcome of a coupling-constant resolution.
struct CouplingResult {
  double c = 0.0;
  double lambda_min = 0.0;
  size_t iterations = 0;  // Lanczos steps spent (0 on a cache hit)
  bool converged = false;
};

class SpectralEngine {
 public:
  explicit SpectralEngine(const SpectralEngineOptions& options = {});
  ~SpectralEngine();

  SpectralEngine(const SpectralEngine&) = delete;
  SpectralEngine& operator=(const SpectralEngine&) = delete;

  /// y = A x for the graph's adjacency matrix; x and y must hold
  /// graph.num_nodes() entries and must not alias. Pooled when the graph
  /// has at least two row blocks and enough entries; results are
  /// identical for every thread count.
  void MatVec(const Graph& graph, const double* x, double* y);

  /// y = A x plus the Rayleigh coefficient x' A x, from ONE fused CSR
  /// pass (spectral/csr_matvec.h's fused row kernel — the same single
  /// kernel MatVec runs, so the two products cannot drift). The
  /// coefficient is reduced over fixed row blocks in block order
  /// (MatVecBlockRows), so it is bit-identical across thread counts.
  /// Same contract as MatVec. This is the engine's Lanczos step; it is
  /// public so kernel-consistency tests can use it directly.
  double MatVecFused(const Graph& graph, const double* x, double* y);

  /// The coupling constant c = -1/lambda_min at `coupling_tolerance`
  /// (single Lanczos sweep for the minimum end only, from the seed's
  /// start vector). Cached per graph. Errors on empty/edgeless graphs.
  Result<CouplingResult> CouplingConstant(const Graph& graph);

  /// Drops the cache entry for `graph` (e.g. once a subgraph is done
  /// with, to bound the cache).
  void Forget(const Graph& graph);

  /// Total Lanczos mat-vec passes performed (cache hits add nothing).
  size_t total_matvecs() const { return total_matvecs_; }
  /// Number of calls answered from the per-graph cache.
  size_t cache_hits() const { return cache_hits_; }

  const SpectralEngineOptions& options() const { return options_; }

 private:
  struct SweepOutcome;

  struct CacheEntry {
    uint64_t graph_id = 0;  // Graph::id() of the solved graph
    CouplingResult coupling;
  };

  CacheEntry* FindEntry(const Graph& graph);
  /// Appends an entry for `graph`, evicting the oldest when full.
  CacheEntry* AddEntry(const Graph& graph);

  Status ValidateGraph(const Graph& graph) const;
  void EnsureWorkspace(size_t n);
  /// Fills v_[0, n) with the sweep's start vector.
  void PrepareStartVector(size_t n);
  size_t ResolvedThreads() const;
  bool UseParallel(const Graph& graph) const;

  /// One fused CSR pass on the solve workspaces: w_ = A v_, returns
  /// alpha = v_' A v_. Thin wrapper over the public MatVecFused.
  double MatVecAlphaStep(const Graph& graph);

  /// Runs the Lanczos recurrence until the minimum end converges at
  /// `coupling_tolerance` or `max_steps` run out.
  SweepOutcome LanczosSweep(const Graph& graph);

  /// Smallest eigenvalue of the current tridiagonal T_k by Sturm
  /// bisection within [lo, hi].
  double BisectExtreme(size_t k, double lo, double hi, double abs_tol) const;
  size_t SturmCountBelow(size_t k, double x) const;

  SpectralEngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;

  // Reusable solve workspaces (grown monotonically, never shrunk).
  std::vector<double> v_;        // current Lanczos vector
  std::vector<double> vprev_;    // previous Lanczos vector
  std::vector<double> w_;        // mat-vec output / next vector
  std::vector<double> partial_;  // per-block reduction partials
  std::vector<double> alpha_;    // T diagonal
  std::vector<double> beta_;     // T off-diagonal
  std::vector<double> beta_sq_;  // squared off-diagonal (Sturm)

  std::vector<CacheEntry> cache_;
  size_t total_matvecs_ = 0;
  size_t cache_hits_ = 0;
};

/// c = -1/lambda_min through a fresh engine configured by
/// ValueSolveOptionsFrom(options): the paper's coupling constant, the
/// largest value for which a virtual vector representation exists. For
/// any graph with at least one edge, lambda_min <= -1, hence c in (0, 1]
/// (clamped to kMaxCouplingConstant). Errors on empty/edgeless graphs.
/// Callers that resolve c repeatedly should hold a SpectralEngine
/// instead to get workspace reuse and per-graph caching.
Result<double> ComputeCouplingConstant(const Graph& graph,
                                       const PowerMethodOptions& options = {});

/// A fixed fleet of independently owned engines for worker-parallel
/// callers. An engine is stateful (workspaces, per-graph cache) and not
/// thread-safe, so a task scheduler holds one engine per pool worker and
/// routes every solve of a task through the engine of the worker running
/// it (`ThreadPool::CurrentWorkerIndex`): two tasks that observe the
/// same index are serialized on that worker, so no engine is ever
/// touched concurrently. All engines share one configuration; per-solve
/// results are identical across engines (start vectors derive from the
/// configured seed, not engine history).
class SpectralEngineSet {
 public:
  SpectralEngineSet(size_t count, const SpectralEngineOptions& options);

  /// The engine owned by worker `worker` (bounds-checked).
  SpectralEngine& at(size_t worker) {
    assert(worker < engines_.size());
    return *engines_[worker];
  }
  size_t size() const { return engines_.size(); }

 private:
  std::vector<std::unique_ptr<SpectralEngine>> engines_;
};

}  // namespace oca

#endif  // OCA_SPECTRAL_SPECTRAL_ENGINE_H_
