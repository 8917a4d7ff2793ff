// SpectralEngine: the shared, workspace-reusing eigensolver behind every
// spectral quantity in the OCA pipeline (lambda_max, lambda_min, and the
// coupling constant c = -1/lambda_min).
//
// Why an engine instead of free functions: the paper's pipeline resolves
// spectral extremes repeatedly (once per OCA run, once per hierarchy
// level, once per subgraph a caller explores), and the seed
// implementation paid for a cold random start, a fixed 1e-7 eigenpair
// tolerance, and two full power-method phases every time. The engine
// amortizes all three:
//
//   * Workspaces (iteration vectors, reduction partials, recurrence
//     coefficients) are owned by the engine and reused across calls —
//     zero per-call allocation after warm-up.
//   * Results are cached per graph, so a hierarchy build or a repeated
//     pipeline run pays for the spectral solve once; `SetWarmStart`
//     seeds the next cold solve from a prior eigenvector (e.g. the
//     parent hierarchy level's) instead of a random vector.
//   * Convergence is adaptive: the solver targets relative error in the
//     *value* the caller asked for (c only needs a few significant
//     digits — see PowerMethodOptions) instead of iterating a fixed
//     eigenpair tolerance to exhaustion.
//
// Algorithm: a shift-free Lanczos (Krylov) recurrence on the adjacency
// matrix. One fused CSR pass per step produces both the mat-vec and the
// Rayleigh coefficient; extreme Ritz values are tracked by Sturm-count
// bisection inside Gershgorin degree bounds (the cheap spectral-radius
// bound max-degree brackets every eigenvalue before any iteration), and
// the Ritz sequence — the optimal Rayleigh quotients over the growing
// Krylov space — is accelerated with Aitken-Delta^2 (Wynn-epsilon, first
// column) extrapolation, which both sharpens the reported value and
// supplies the stopping rule's error estimate. This reaches the spectral
// edge orders of magnitude faster than shifted power iteration when the
// edge gap is small (the common case on community graphs), which is what
// makes the adaptive "few significant digits of c" stop safe: the
// extrapolated value is typically *closer* to the true eigenvalue than
// the seed path's fixed-tolerance answer.
//
// The mat-vec is parallelized over util/thread_pool above a size
// threshold, with fixed-block reductions so results are bit-identical
// across thread counts.
//
// Thread-safety: an engine instance is NOT thread-safe; use one per
// thread or guard externally. Cached entries are keyed by Graph address
// (plus node/edge counts as a guard); callers must not destroy a graph
// and reuse its address while relying on the cache — `Forget`/
// `ClearCache` drop entries explicitly.

#ifndef OCA_SPECTRAL_SPECTRAL_ENGINE_H_
#define OCA_SPECTRAL_SPECTRAL_ENGINE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "spectral/extreme_eigen.h"
#include "spectral/power_method.h"
#include "util/result.h"

namespace oca {

class ThreadPool;

/// Engine-wide configuration. The two tolerances are targets on the
/// *relative error of the reported value*, not on eigenpair residuals.
struct SpectralEngineOptions {
  /// Target relative error of the coupling constant c (equivalently of
  /// lambda_min). The paper's pipeline only consumes a few significant
  /// digits of c, so the default asks for ~4-5. Must stay in sync with
  /// PowerMethodOptions::coupling_tolerance so a held engine and the
  /// free-function wrappers resolve the same c by default.
  double coupling_tolerance = 2e-5;
  /// Target relative error for Extremes() eigenvalues.
  double value_tolerance = 1e-7;
  /// Hard cap on Lanczos steps (mat-vecs) per solve.
  size_t max_steps = 6000;
  /// Seed for start vectors and breakdown restarts.
  uint64_t seed = 0x5EED5EEDull;
  /// Mat-vec worker threads (1 = serial, 0 = hardware concurrency).
  size_t num_threads = 1;
  /// Directed-edge count (2m) below which the mat-vec stays serial even
  /// when num_threads > 1.
  size_t parallel_min_edges = 1u << 16;
};

/// The one mapping from caller-facing PowerMethodOptions to engine
/// options, shared by every wrapper/call site so the translation cannot
/// drift. `max_steps` is the call site's step-budget policy, stated
/// explicitly: eigenpair entry points honor `pm.max_iterations` as-is,
/// value-only solves typically grant `max(2 * pm.max_iterations, 128)`
/// (the seed ran up to max_iterations per power-method phase).
SpectralEngineOptions EngineOptionsFrom(const PowerMethodOptions& pm,
                                        size_t max_steps);

/// EngineOptionsFrom with the standard value-solve step budget,
/// max(2 * pm.max_iterations, 128) — the one policy shared by every
/// value-only entry point (RunOca, BuildHierarchy, the free wrappers).
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
  /// graph.num_nodes() entries and must not alias. Parallelized over the
  /// engine's pool above the size threshold; results are identical for
  /// every thread count.
  void MatVec(const Graph& graph, const double* x, double* y);

  /// y = A x plus the Rayleigh coefficient x' A x, from ONE fused CSR
  /// pass (spectral/csr_matvec.h's fused row kernel — the same single
  /// kernel MatVec runs, so the two products cannot drift). The
  /// coefficient is reduced over fixed row blocks in block order
  /// (MatVecBlockRows), so it is bit-identical across thread counts.
  /// Same contract as MatVec. This is the engine's
  /// Lanczos step; it is public so kernel-consistency tests and fused
  /// callers (e.g. Rayleigh-quotient loops) can use it directly.
  double MatVecFused(const Graph& graph, const double* x, double* y);

  /// Both spectral extremes at `value_tolerance`. Cached per graph.
  /// Errors on empty/edgeless graphs.
  Result<ExtremeEigenvalues> Extremes(const Graph& graph);

  /// The coupling constant c = -1/lambda_min at `coupling_tolerance`
  /// (single Lanczos sweep for the minimum end only — no lambda_max
  /// phase). Cached per graph. Errors on empty/edgeless graphs.
  Result<CouplingResult> CouplingConstant(const Graph& graph);

  /// CouplingConstant plus the lambda_min Ritz vector of the same sweep,
  /// reconstructed by a replay pass and cached as the graph's
  /// min-eigenvector (retrievable via GetCachedMinEigenvector, usable
  /// through WarmStartFromParent). This is the entry point for
  /// warm-start chains across evolving graphs: each solve both consumes
  /// a pending warm start and produces the eigenvector the next
  /// (sub)graph's solve is seeded from. `eigenvector` may be null when
  /// only the caching side effect is wanted. The eigenvector is resolved
  /// at `coupling_tolerance`, loose by eigenpair standards — good enough
  /// to seed a Krylov space, not for spectral analyses (use MinEigenpair
  /// for those). A cache hit with a stored vector costs nothing; a cache
  /// hit without one replays a fresh sweep for the vector but keeps the
  /// cached coupling values, so repeated calls agree exactly.
  Result<CouplingResult> CouplingConstantWithVector(
      const Graph& graph, std::vector<double>* eigenvector);

  /// Dominant (largest algebraic) eigenpair, honoring the caller's
  /// PowerMethodOptions: `tolerance` bounds the eigenvalue stop and the
  /// Ritz residual, `max_iterations` caps Lanczos steps. The eigenvector
  /// is reconstructed by a second recurrence pass (no basis storage), so
  /// engine memory stays O(n).
  Result<EigenEstimate> Dominant(const Graph& graph,
                                 const PowerMethodOptions& pm);

  /// Smallest-eigenvalue eigenpair, same contract as Dominant. Also
  /// caches the eigenvector as the graph's warm-start vector.
  Result<EigenEstimate> MinEigenpair(const Graph& graph,
                                     const PowerMethodOptions& pm);

  /// Seeds the next cold solve's start vector (copied). Applies once, to
  /// the first subsequent solve whose graph has the same node count (a
  /// cache hit counts as that solve and consumes the vector); ignored
  /// otherwise. Intended for warm-starting a level's eigenvector from
  /// the parent level when a graph evolves between solves.
  void SetWarmStart(std::span<const double> eigenvector);

  /// Cross-graph warm-start restriction: registers (via SetWarmStart)
  /// the renormalized restriction of a parent graph's eigenvector onto a
  /// subgraph's node set. `to_parent[i]` is the parent-side index of the
  /// subgraph's local node i — for a subgraph induced from the parent
  /// graph itself this is exactly `Subgraph::to_original`. Returns false
  /// and registers nothing when the restriction is unusable: empty map,
  /// an index out of range, or a restricted norm too small to carry
  /// spectral information (the parent eigenvector has essentially no
  /// mass on this subgraph, so a random start is the better seed).
  bool WarmStartFromParent(std::span<const double> parent_eigenvector,
                           std::span<const NodeId> to_parent);

  /// Copies the cached min-eigenvector for `graph` into `out` if one is
  /// known (populated by MinEigenpair). Returns false otherwise.
  bool GetCachedMinEigenvector(const Graph& graph,
                               std::vector<double>* out) const;

  /// Drops the cache entry for `graph` (e.g. before its storage is
  /// reused) / the whole cache.
  void Forget(const Graph& graph);
  void ClearCache();

  /// Total Lanczos mat-vec passes performed (cache hits add nothing).
  size_t total_matvecs() const { return total_matvecs_; }
  /// Number of calls answered from the per-graph cache.
  size_t cache_hits() const { return cache_hits_; }

  const SpectralEngineOptions& options() const { return options_; }

 private:
  struct EndTracker;
  struct SweepOutcome;

  struct CacheEntry {
    const Graph* graph = nullptr;
    size_t nodes = 0;
    size_t edges = 0;
    bool has_extremes = false;
    ExtremeEigenvalues extremes;
    bool has_coupling = false;
    CouplingResult coupling;
    std::vector<double> min_eigenvector;  // empty unless MinEigenpair ran
  };

  CacheEntry* FindEntry(const Graph& graph);
  const CacheEntry* FindEntry(const Graph& graph) const;
  CacheEntry* TouchEntry(const Graph& graph);

  Status ValidateGraph(const Graph& graph) const;
  void EnsureWorkspace(size_t n);
  void PrepareStartVector(const Graph& graph);
  /// A cache hit counts as the warm-start contract's "first subsequent
  /// solve": consumes a size-matching pending vector so it cannot leak
  /// into a later unrelated solve.
  void ConsumeWarmStartOnCacheHit(size_t n);
  size_t ResolvedThreads() const;
  bool UseParallel(const Graph& graph) const;

  /// One fused CSR pass on the solve workspaces: w_ = A v_, returns
  /// alpha = v_' A v_. Thin wrapper over the public MatVecFused.
  double MatVecAlphaStep(const Graph& graph);

  /// Runs the Lanczos recurrence until the wanted ends converge (pass 1,
  /// `ritz_weights == nullptr`) or replays exactly `replay_steps` steps
  /// accumulating `eigenvector += ritz_weights[j] * v_j` (pass 2).
  SweepOutcome LanczosSweep(const Graph& graph, bool need_min, bool need_max,
                            double tol_min, double tol_max, size_t step_cap,
                            double residual_target,
                            const std::vector<double>* ritz_weights,
                            size_t replay_steps,
                            std::vector<double>* eigenvector);

  /// Extreme eigenvalue of the current tridiagonal T_k by Sturm bisection
  /// within [lo, hi].
  double BisectExtreme(size_t k, bool smallest, double lo, double hi,
                       double abs_tol) const;
  size_t SturmCountBelow(size_t k, double x) const;

  /// Last component (and optionally the full vector) of the unit
  /// eigenvector of T_k for Ritz value theta, via inverse iteration.
  double TridiagEigenvector(size_t k, double theta,
                            std::vector<double>* s) const;

  Result<EigenEstimate> EigenpairImpl(const Graph& graph,
                                      const PowerMethodOptions& pm,
                                      bool smallest);

  /// Replays the sweep that just ran (pass 2 over the same start vector
  /// and restart stream) to reconstruct the unit Ritz vector for `theta`,
  /// sign-fixed so the largest-magnitude entry is positive.
  std::vector<double> ReconstructRitzVector(const Graph& graph, double theta);

  SpectralEngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;

  // Reusable solve workspaces (grown monotonically, never shrunk).
  std::vector<double> v_;        // current Lanczos vector
  std::vector<double> vprev_;    // previous Lanczos vector
  std::vector<double> w_;        // mat-vec output / next vector
  std::vector<double> start_;    // start vector of the current sweep
  std::vector<double> partial_;  // per-block reduction partials
  std::vector<double> alpha_;    // T diagonal
  std::vector<double> beta_;     // T off-diagonal
  std::vector<double> beta_sq_;  // squared off-diagonal (Sturm)
  mutable std::vector<double> tri_s_;    // tridiagonal eigenvector scratch
  mutable std::vector<double> tri_d_;    // Thomas-solve scratch
  mutable std::vector<double> tri_rhs_;  // Thomas-solve scratch

  std::vector<double> warm_;  // pending SetWarmStart vector
  bool warm_pending_ = false;

  std::vector<CacheEntry> cache_;
  size_t total_matvecs_ = 0;
  size_t cache_hits_ = 0;
};

/// A fixed fleet of independently owned engines for worker-parallel
/// callers. An engine is stateful (workspaces, per-graph cache, pending
/// warm start) and not thread-safe, so a task scheduler holds one engine
/// per pool worker and routes every solve of a task through the engine
/// of the worker running it (`ThreadPool::CurrentWorkerIndex`): two
/// tasks that observe the same index are serialized on that worker, so
/// no engine is ever touched concurrently. Cross-engine state handoff
/// happens through values, not shared engines — a parent task publishes
/// its solve's eigenvector, and the child task feeds it to its own
/// worker's engine via `WarmStartFromParent`. All engines share one
/// configuration; per-solve results are identical across engines (start
/// vectors derive from the configured seed, not engine history).
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
