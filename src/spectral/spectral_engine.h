// SpectralEngine: the shared, workspace-reusing eigensolver behind the
// one spectral quantity the OCA pipeline needs, the coupling constant
// c = -1/lambda_min of the paper's Section II (and, for warm-start
// chains, lambda_min's Ritz vector).
//
// Why an engine instead of free functions: the paper's pipeline resolves
// c repeatedly (once per OCA run, once per hierarchy level, once per
// subgraph a caller explores), and the seed implementation paid for a
// cold random start, a fixed 1e-7 eigenpair tolerance, and two full
// power-method phases every time. The engine amortizes all three:
//
//   * Workspaces (iteration vectors, reduction partials, recurrence
//     coefficients) are owned by the engine and reused across calls —
//     zero per-call allocation after warm-up.
//   * Results are cached per graph, so a hierarchy build or a repeated
//     pipeline run pays for the spectral solve once; `SetWarmStart`
//     seeds the next cold solve from a prior eigenvector (e.g. the
//     parent hierarchy level's) instead of a random vector.
//   * Convergence is adaptive: the solver targets relative error in c
//     itself (c only needs a few significant digits — see
//     SpectralEngineOptions::coupling_tolerance) instead of iterating a
//     fixed eigenpair tolerance to exhaustion.
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
#include <span>
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
  /// (single Lanczos sweep for the minimum end only). Cached per graph.
  /// Errors on empty/edgeless graphs.
  Result<CouplingResult> CouplingConstant(const Graph& graph);

  /// CouplingConstant plus the lambda_min Ritz vector of the same sweep,
  /// reconstructed by a replay pass and cached as the graph's
  /// min-eigenvector (usable through WarmStartFromParent). This is the
  /// entry point for warm-start chains across evolving graphs: each
  /// solve both consumes a pending warm start and produces the
  /// eigenvector the next (sub)graph's solve is seeded from.
  /// `eigenvector` may be null when only the caching side effect is
  /// wanted. The eigenvector is resolved at `coupling_tolerance`, loose
  /// by eigenpair standards — good enough to seed a Krylov space; a
  /// tighter `coupling_tolerance` tightens it too. A cache hit with a
  /// stored vector costs nothing; a cache hit without one replays a
  /// fresh sweep for the vector but keeps the cached coupling values, so
  /// repeated calls agree exactly.
  Result<CouplingResult> CouplingConstantWithVector(
      const Graph& graph, std::vector<double>* eigenvector);

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
    std::vector<double> min_eigenvector;  // empty unless a vector was asked
  };

  CacheEntry* FindEntry(const Graph& graph);
  /// Appends an entry for `graph`, evicting the oldest when full.
  CacheEntry* AddEntry(const Graph& graph);

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

  /// Runs the Lanczos recurrence until the minimum end converges at
  /// `coupling_tolerance` or `max_steps` run out (pass 1,
  /// `ritz_weights == nullptr`), or replays exactly `replay_steps` steps
  /// accumulating `*eigenvector += ritz_weights[j] * v_j` (pass 2).
  SweepOutcome LanczosSweep(const Graph& graph,
                            const std::vector<double>* ritz_weights,
                            size_t replay_steps,
                            std::vector<double>* eigenvector);

  /// Smallest eigenvalue of the current tridiagonal T_k by Sturm
  /// bisection within [lo, hi].
  double BisectExtreme(size_t k, double lo, double hi, double abs_tol) const;
  size_t SturmCountBelow(size_t k, double x) const;

  /// Unit eigenvector `s` of T_k for Ritz value theta, via inverse
  /// iteration.
  void TridiagEigenvector(size_t k, double theta, std::vector<double>* s) const;

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
  mutable std::vector<double> tri_d_;    // Thomas-solve scratch
  mutable std::vector<double> tri_rhs_;  // Thomas-solve scratch

  std::vector<double> warm_;  // pending SetWarmStart vector
  bool warm_pending_ = false;

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
/// instead to get workspace reuse, per-graph caching, and warm starts.
Result<double> ComputeCouplingConstant(const Graph& graph,
                                       const PowerMethodOptions& options = {});

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
