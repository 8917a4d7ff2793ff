#include "spectral/spectral_engine.h"

#include <algorithm>
#include <cmath>

#include "util/random.h"
#include "util/thread_pool.h"

namespace oca {

namespace {

/// Ritz values are re-examined every this many Lanczos steps.
constexpr size_t kCheckInterval = 4;

/// No convergence verdict before this many steps (three checkpoints of
/// history are needed for the Aitken window anyway).
constexpr size_t kMinStepsBeforeStop = 12;

/// Cache entries beyond this are evicted FIFO.
constexpr size_t kMaxCacheEntries = 64;

/// Directed-entry count (2m) below which the mat-vec stays serial even
/// when num_threads > 1 and the graph has several row blocks.
constexpr size_t kParallelMinEdges = size_t{1} << 16;

double Norm2(const std::vector<double>& x) {
  double s = 0.0;
  for (double v : x) s += v * v;
  return std::sqrt(s);
}

}  // namespace

/// What a pass-1 sweep found at the minimum end: the raw Ritz value,
/// its Aitken-extrapolated refinement and the error estimate the
/// coupling bias uses.
struct SpectralEngine::SweepOutcome {
  bool converged = false;
  double theta = 0.0;           // latest raw Ritz value
  double value = 0.0;           // reported value (extrapolated when reliable)
  double error_estimate = 0.0;  // |extrapolated - raw| at the stop
  size_t steps = 0;  // Lanczos steps taken (== size of the tridiagonal)
};

SpectralEngineOptions ValueSolveOptionsFrom(const PowerMethodOptions& pm) {
  SpectralEngineOptions options;
  options.seed = pm.seed;
  options.coupling_tolerance = pm.coupling_tolerance;
  options.max_steps = std::max<size_t>(2 * pm.max_iterations, 128);
  return options;
}

SpectralEngine::SpectralEngine(const SpectralEngineOptions& options)
    : options_(options) {}

SpectralEngine::~SpectralEngine() = default;

size_t SpectralEngine::ResolvedThreads() const {
  return options_.num_threads == 0 ? DefaultThreadCount()
                                   : options_.num_threads;
}

bool SpectralEngine::UseParallel(const Graph& graph) const {
  // A graph of one row block (MatVecBlockRows) has nothing to share out:
  // the pool would only add a hand-off.
  const size_t n = graph.num_nodes();
  return ResolvedThreads() > 1 && n > MatVecBlockRows(n) &&
         graph.neighbor_array().size() >= kParallelMinEdges;
}

Status SpectralEngine::ValidateGraph(const Graph& graph) const {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("spectral solve on empty graph");
  }
  if (graph.num_edges() == 0) {
    return Status::FailedPrecondition(
        "spectral solve on edgeless graph: adjacency matrix is zero");
  }
  return Status::OK();
}

void SpectralEngine::EnsureWorkspace(size_t n) {
  if (v_.size() < n) {
    v_.resize(n);
    vprev_.resize(n);
    w_.resize(n);
  }
}

void SpectralEngine::PrepareStartVector(const Graph& graph) {
  const size_t n = graph.num_nodes();
  start_.resize(n);
  bool used_warm = false;
  if (warm_pending_ && warm_.size() == n) {
    // Consumed by its first matching-size solve (used or degenerate);
    // a size-mismatched solve leaves it pending, per the contract "the
    // first subsequent solve whose graph has the same node count".
    warm_pending_ = false;
    double norm = Norm2(warm_);
    if (norm > 0.0 && std::isfinite(norm)) {
      // Blend a small random component into the warm vector: a
      // pathological warm start (the contract admits vectors from a
      // different graph of the same size) must not be exactly orthogonal
      // to the wanted eigenvector, or the sweep could stagnate at an
      // interior eigenvalue — the probability-1 guarantee a random start
      // gives for free. 1e-3 costs a warm solve at most a few steps.
      Rng rng(options_.seed ^ 0x3A7B9E1Full);
      const double eps = 1e-3 / std::sqrt(static_cast<double>(n));
      for (size_t i = 0; i < n; ++i) {
        start_[i] = warm_[i] / norm + eps * rng.NextGaussian();
      }
      double snorm = Norm2(start_);
      for (double& x : start_) x /= snorm;
      used_warm = true;
    }
  }
  if (!used_warm) {
    Rng rng(options_.seed);
    for (double& x : start_) x = rng.NextGaussian();
    double norm = Norm2(start_);
    for (double& x : start_) x /= norm;
  }
}

void SpectralEngine::MatVec(const Graph& graph, const double* x, double* y) {
  const size_t n = graph.num_nodes();
  // Block width is a pure function of n (MatVecBlockRows), so the row
  // partition is identical across serial/pooled runs and kernel
  // variants. Row results are independent of blocking anyway; the
  // partition only matters for parallel grain here.
  const size_t block = MatVecBlockRows(n);
  if (UseParallel(graph)) {
    if (!pool_) pool_ = std::make_unique<ThreadPool>(ResolvedThreads());
    const size_t nblocks = (n + block - 1) / block;
    pool_->ParallelFor(nblocks, [&](size_t blk) {
      size_t begin = blk * block;
      AdjacencyMatVecRows(graph, begin, std::min(n, begin + block), x, y);
    });
  } else {
    AdjacencyMatVecRows(graph, 0, n, x, y);
  }
  ++total_matvecs_;
}

double SpectralEngine::MatVecFused(const Graph& graph, const double* x,
                                   double* y) {
  const size_t n = graph.num_nodes();
  const size_t block = MatVecBlockRows(n);
  const size_t nblocks = (n + block - 1) / block;
  partial_.assign(nblocks, 0.0);
  // The single shared row kernel (fused variant): serial and pooled
  // execution run the same per-block calls, and the alpha partials are
  // combined in block order, so the result is bit-identical for every
  // thread count.
  auto run_block = [&](size_t blk) {
    size_t begin = blk * block;
    partial_[blk] = AdjacencyMatVecRowsFused(
        graph, begin, std::min(n, begin + block), x, y);
  };
  if (UseParallel(graph)) {
    if (!pool_) pool_ = std::make_unique<ThreadPool>(ResolvedThreads());
    pool_->ParallelFor(nblocks, run_block);
  } else {
    for (size_t blk = 0; blk < nblocks; ++blk) run_block(blk);
  }
  ++total_matvecs_;
  double alpha = 0.0;
  for (size_t blk = 0; blk < nblocks; ++blk) alpha += partial_[blk];
  return alpha;
}

double SpectralEngine::MatVecAlphaStep(const Graph& graph) {
  return MatVecFused(graph, v_.data(), w_.data());
}

size_t SpectralEngine::SturmCountBelow(size_t k, double x) const {
  size_t count = 0;
  double q = alpha_[0] - x;
  if (q < 0.0) ++count;
  for (size_t i = 1; i < k; ++i) {
    double denom = q;
    if (std::fabs(denom) < 1e-300) denom = denom < 0.0 ? -1e-300 : 1e-300;
    q = alpha_[i] - x - beta_sq_[i - 1] / denom;
    if (q < 0.0) ++count;
  }
  return count;
}

double SpectralEngine::BisectExtreme(size_t k, double lo, double hi,
                                     double abs_tol) const {
  for (int iter = 0; iter < 200 && hi - lo > abs_tol; ++iter) {
    double mid = 0.5 * (lo + hi);
    if (SturmCountBelow(k, mid) >= 1) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

void SpectralEngine::TridiagEigenvector(size_t k, double theta,
                                        std::vector<double>* s) const {
  std::vector<double>& out = *s;
  out.assign(k, 1.0 / std::sqrt(static_cast<double>(k)));
  if (k == 1) {
    out[0] = 1.0;
    return;
  }
  // Two sweeps of inverse iteration with a Thomas solve; the extreme Ritz
  // value is well separated inside T, so this converges immediately.
  for (int sweep = 0; sweep < 2; ++sweep) {
    tri_d_.resize(k);
    tri_rhs_ = out;
    double d0 = alpha_[0] - theta;
    if (std::fabs(d0) < 1e-12) d0 = d0 < 0.0 ? -1e-12 : 1e-12;
    tri_d_[0] = d0;
    for (size_t i = 1; i < k; ++i) {
      double m = beta_[i - 1] / tri_d_[i - 1];
      double di = alpha_[i] - theta - m * beta_[i - 1];
      if (std::fabs(di) < 1e-12) di = di < 0.0 ? -1e-12 : 1e-12;
      tri_d_[i] = di;
      tri_rhs_[i] -= m * tri_rhs_[i - 1];
    }
    out[k - 1] = tri_rhs_[k - 1] / tri_d_[k - 1];
    for (size_t i = k - 1; i-- > 0;) {
      out[i] = (tri_rhs_[i] - beta_[i] * out[i + 1]) / tri_d_[i];
    }
    double norm = Norm2(out);
    if (!(norm > 0.0) || !std::isfinite(norm)) {
      out.assign(k, 1.0 / std::sqrt(static_cast<double>(k)));
      return;
    }
    for (double& x : out) x /= norm;
  }
}

SpectralEngine::SweepOutcome SpectralEngine::LanczosSweep(
    const Graph& graph, const std::vector<double>* ritz_weights,
    size_t replay_steps, std::vector<double>* eigenvector) {
  const size_t n = graph.num_nodes();
  EnsureWorkspace(n);

  // Gershgorin/degree bound: every adjacency eigenvalue lies within
  // [-max_row_sum, max_row_sum]. For an unweighted graph the row sum is
  // the degree (MaxWeightedDegree degrades to exactly MaxDegree there,
  // so weightless sweeps keep their historical bracket bit-for-bit);
  // for a weighted one it is the weighted degree. This brackets the
  // Ritz bisection and scales the breakdown threshold before any
  // iteration happens.
  const double gersh = graph.MaxWeightedDegree();
  const double glo = -gersh - 1.0;
  const double ghi = gersh + 1.0;

  const double tol = options_.coupling_tolerance;
  const bool replay = ritz_weights != nullptr;
  const size_t cap =
      replay ? replay_steps : std::max<size_t>(options_.max_steps, 1);

  std::copy(start_.begin(), start_.end(), v_.begin());
  std::fill(vprev_.begin(), vprev_.begin() + n, 0.0);
  alpha_.clear();
  beta_.clear();
  beta_sq_.clear();
  // Breakdown restarts draw from a sweep-local generator so a replay
  // pass reproduces pass 1 bit-for-bit.
  Rng restart_rng(options_.seed ^ 0xA17C3B5Dull);

  SweepOutcome out;
  // The last three checkpoints' raw Ritz values, oldest first.
  double hist[3] = {0.0, 0.0, 0.0};
  int hist_count = 0;
  if (replay) eigenvector->assign(n, 0.0);

  auto check_min = [&](size_t k, size_t step) {
    double scale_guess =
        std::max(1.0, std::fabs(hist_count > 0 ? out.theta : gersh));
    double abs_tol = std::max(1e-13, 0.02 * tol * scale_guess);
    double theta = BisectExtreme(k, glo, ghi, abs_tol);
    out.theta = theta;
    out.value = theta;
    if (hist_count < 3) {
      hist[hist_count++] = theta;
    } else {
      hist[0] = hist[1];
      hist[1] = hist[2];
      hist[2] = theta;
    }
    if (step < kMinStepsBeforeStop || hist_count < 3) return;
    double scale = std::max(1.0, std::fabs(theta));
    double d1 = hist[1] - hist[0];
    double d2 = hist[2] - hist[1];
    // Raw stagnation gate: the Ritz sequence must already be moving at
    // the tolerance scale before extrapolation is trusted.
    if (std::fabs(d2) > 2.0 * tol * scale) return;
    double extrap = theta;
    bool extrap_accepted = false;
    double dd = d2 - d1;
    if (dd != 0.0 && std::fabs(d2) < std::fabs(d1)) {
      double cand = theta - d2 * d2 / dd;
      // The smallest Ritz value falls monotonically (Cauchy interlacing);
      // reject extrapolations that violate that or leave the Gershgorin
      // hull.
      if (cand <= theta + abs_tol &&
          std::fabs(cand - theta) <= 50.0 * std::fabs(d2) && cand >= glo &&
          cand <= ghi) {
        extrap = cand;
        extrap_accepted = true;
      }
    }
    double err_est = std::fabs(extrap - theta);
    if (err_est > tol * scale) return;
    // Without an accepted extrapolation there is no tail estimate at all
    // (err_est is trivially 0), so demand much deeper raw stagnation
    // before declaring convergence — a sequence plateauing at an interior
    // eigenvalue must not stop just because two checkpoints agree.
    if (!extrap_accepted && std::fabs(d2) > 0.25 * tol * scale) return;
    out.converged = true;
    out.value = extrap;
    // Remaining-error bound for the conservative coupling bias: the
    // Aitken correction estimates the error of the RAW value; adding
    // half the last raw step covers the multi-mode case where the
    // correction alone under-estimates, and the tol-proportional floor
    // covers a deceptively stagnant sequence whose correction shrank
    // faster than the true residual error. None of the three terms
    // costs a significant digit (each is <= tol * scale at the stop).
    out.error_estimate =
        std::max(err_est + 0.5 * std::fabs(d2), 0.05 * tol * scale);
  };

  double beta_prev = 0.0;
  for (size_t step = 1; step <= cap; ++step) {
    if (replay) {
      double wgt = (*ritz_weights)[step - 1];
      if (wgt != 0.0) {
        double* y = eigenvector->data();
        for (size_t i = 0; i < n; ++i) y[i] += wgt * v_[i];
      }
      if (step == cap) {
        out.steps = step;
        break;  // last basis vector consumed; no need to advance
      }
    }

    double a = MatVecAlphaStep(graph);
    alpha_.push_back(a);
    double b2 = 0.0;
    for (size_t i = 0; i < n; ++i) {
      w_[i] -= a * v_[i] + beta_prev * vprev_[i];
      b2 += w_[i] * w_[i];
    }
    double b = std::sqrt(b2);
    out.steps = step;

    const bool breakdown = !(b > 1e-12 * std::max(1.0, gersh));

    if (!replay &&
        ((step % kCheckInterval == 0) || breakdown || step == cap)) {
      const size_t k = alpha_.size();
      check_min(k, step);
      if (!out.converged && breakdown && k >= n) {
        // The Krylov blocks exhausted the whole space: every Ritz value
        // is an exact eigenvalue, so the minimum is final (up to the
        // bisection width, which becomes the error estimate).
        out.converged = true;
        out.value = out.theta;
        out.error_estimate =
            std::max(1e-13, 0.02 * tol * std::max(1.0, std::fabs(out.theta)));
      }
      if (out.converged) break;
    }

    if (breakdown) {
      if (step >= cap) break;
      // The start vector's Krylov space is invariant; open a new block
      // (beta = 0 keeps T block-tridiagonal, so Sturm counts and Ritz
      // extraction stay valid) from a fresh direction.
      for (size_t i = 0; i < n; ++i) w_[i] = restart_rng.NextGaussian();
      double dv = 0.0, dp = 0.0;
      for (size_t i = 0; i < n; ++i) {
        dv += w_[i] * v_[i];
        dp += w_[i] * vprev_[i];
      }
      double nb2 = 0.0;
      for (size_t i = 0; i < n; ++i) {
        w_[i] -= dv * v_[i] + dp * vprev_[i];
        nb2 += w_[i] * w_[i];
      }
      if (!(nb2 > 0.0)) break;  // space truly exhausted (tiny graph)
      double nb = std::sqrt(nb2);
      beta_.push_back(0.0);
      beta_sq_.push_back(0.0);
      beta_prev = 0.0;
      for (size_t i = 0; i < n; ++i) {
        vprev_[i] = v_[i];
        v_[i] = w_[i] / nb;
      }
      continue;
    }

    beta_.push_back(b);
    beta_sq_.push_back(b2);
    beta_prev = b;
    for (size_t i = 0; i < n; ++i) {
      vprev_[i] = v_[i];
      v_[i] = w_[i] / b;
    }
  }

  // A sweep that ran out of steps gets a best-effort error scale — the
  // last raw checkpoint step. This is NOT a bound (the remaining
  // geometric tail can exceed it); callers see converged == false and
  // the coupling bias at least leans the right way instead of trusting
  // the raw Ritz value verbatim.
  if (!replay && !out.converged && hist_count >= 2) {
    out.error_estimate = std::fabs(hist[hist_count - 1] - hist[hist_count - 2]);
  }

  return out;
}

SpectralEngine::CacheEntry* SpectralEngine::FindEntry(const Graph& graph) {
  for (auto& entry : cache_) {
    if (entry.graph_id == graph.id()) return &entry;
  }
  return nullptr;
}

SpectralEngine::CacheEntry* SpectralEngine::AddEntry(const Graph& graph) {
  if (cache_.size() >= kMaxCacheEntries) {
    cache_.erase(cache_.begin());
  }
  CacheEntry entry;
  entry.graph_id = graph.id();
  cache_.push_back(std::move(entry));
  return &cache_.back();
}

void SpectralEngine::ConsumeWarmStartOnCacheHit(size_t n) {
  // A cache hit IS the "first subsequent solve" of the warm-start
  // contract: a size-matching pending vector is consumed (it has nothing
  // to seed), so it cannot leak into a later unrelated solve that
  // merely shares the node count. A size-mismatched vector stays
  // pending, exactly as in PrepareStartVector.
  if (warm_pending_ && warm_.size() == n) warm_pending_ = false;
}

Result<CouplingResult> SpectralEngine::CouplingConstant(const Graph& graph) {
  return CouplingConstantWithVector(graph, nullptr);
}

Result<CouplingResult> SpectralEngine::CouplingConstantWithVector(
    const Graph& graph, std::vector<double>* eigenvector) {
  if (Status s = ValidateGraph(graph); !s.ok()) return s;
  const bool want_vector = eigenvector != nullptr;
  if (CacheEntry* entry = FindEntry(graph);
      entry && (!want_vector || !entry->min_eigenvector.empty())) {
    ++cache_hits_;
    ConsumeWarmStartOnCacheHit(graph.num_nodes());
    CouplingResult hit = entry->coupling;
    hit.iterations = 0;  // answered from cache
    if (want_vector) *eigenvector = entry->min_eigenvector;
    return hit;
  }

  PrepareStartVector(graph);
  SweepOutcome sweep = LanczosSweep(graph, nullptr, 0, nullptr);

  double lambda_min = sweep.value;
  if (lambda_min >= 0.0) {
    return Status::Internal(
        "lambda_min must be negative for a graph with edges");
  }
  // Conservative bias: push the estimate toward the admissible side by
  // its own error estimate, so on a CONVERGED solve c = -1/lambda_min
  // never exceeds the true admissible maximum because of early stopping.
  // (The seed path had the opposite failure mode: an unconverged
  // lambda_min OVERSHOT c.) If the sweep hit its step cap the bias is
  // only best-effort — converged == false signals that to callers.
  double safe_min = lambda_min - sweep.error_estimate;
  double c = ClampCouplingToAdmissible(-1.0 / safe_min);
  if (c <= 0.0) {
    return Status::Internal("coupling constant must be positive");
  }

  CouplingResult result{c, lambda_min, sweep.steps, sweep.converged};
  std::vector<double> vec;
  if (want_vector) {
    // Raw Ritz value: the reconstruction must match the basis that was
    // actually built, not the extrapolated refinement.
    vec = ReconstructRitzVector(graph, sweep.theta);
  }
  CacheEntry* entry = FindEntry(graph);
  if (entry != nullptr) {
    // A vector-less cache hit forced a re-sweep; keep the cached coupling
    // values so repeated calls agree exactly, and only adopt the vector.
    result = entry->coupling;
    result.iterations = sweep.steps;
  } else {
    entry = AddEntry(graph);
    entry->coupling = result;
  }
  if (want_vector) {
    entry->min_eigenvector = vec;
    *eigenvector = std::move(vec);
  }
  return result;
}

std::vector<double> SpectralEngine::ReconstructRitzVector(const Graph& graph,
                                                          double theta) {
  // Replay pass: y = sum_j s_j v_j over the basis of the sweep that just
  // ran (same start vector, same restart stream, bit-identical vectors).
  const size_t k = alpha_.size();
  std::vector<double> weights;
  TridiagEigenvector(k, theta, &weights);
  std::vector<double> vec;
  LanczosSweep(graph, &weights, k, &vec);
  double norm = Norm2(vec);
  if (norm > 0.0 && std::isfinite(norm)) {
    for (double& x : vec) x /= norm;
  }
  // Deterministic sign: the entry of largest magnitude is positive.
  size_t arg = 0;
  for (size_t i = 1; i < vec.size(); ++i) {
    if (std::fabs(vec[i]) > std::fabs(vec[arg])) arg = i;
  }
  if (!vec.empty() && vec[arg] < 0.0) {
    for (double& x : vec) x = -x;
  }
  return vec;
}

void SpectralEngine::SetWarmStart(std::span<const double> eigenvector) {
  warm_.assign(eigenvector.begin(), eigenvector.end());
  warm_pending_ = !warm_.empty();
}

bool SpectralEngine::WarmStartFromParent(
    std::span<const double> parent_eigenvector,
    std::span<const NodeId> to_parent) {
  if (to_parent.empty()) return false;
  std::vector<double> restricted(to_parent.size());
  for (size_t i = 0; i < to_parent.size(); ++i) {
    if (to_parent[i] >= parent_eigenvector.size()) return false;
    restricted[i] = parent_eigenvector[to_parent[i]];
  }
  double norm = Norm2(restricted);
  // The useful-signal threshold: if the parent eigenvector carries less
  // than ~1e-6 of its unit mass on this subgraph, the restriction is
  // numerically indistinguishable from noise and a random start is the
  // better seed. (PrepareStartVector renormalizes and blends in its own
  // random component, so any norm above the floor is safe to use.)
  if (!(norm > 1e-6) || !std::isfinite(norm)) return false;
  for (double& x : restricted) x /= norm;
  SetWarmStart(restricted);
  return true;
}

void SpectralEngine::Forget(const Graph& graph) {
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->graph_id == graph.id()) {
      cache_.erase(it);
      return;
    }
  }
}

SpectralEngineSet::SpectralEngineSet(size_t count,
                                     const SpectralEngineOptions& options) {
  engines_.reserve(std::max<size_t>(1, count));
  for (size_t i = 0; i < std::max<size_t>(1, count); ++i) {
    engines_.push_back(std::make_unique<SpectralEngine>(options));
  }
}

Result<double> ComputeCouplingConstant(const Graph& graph,
                                       const PowerMethodOptions& options) {
  // A fresh engine per call: workspace reuse and caching belong to
  // callers that hold an engine across calls (RunOca, BuildHierarchy).
  SpectralEngine engine(ValueSolveOptionsFrom(options));
  OCA_ASSIGN_OR_RETURN(CouplingResult result, engine.CouplingConstant(graph));
  return result.c;
}

}  // namespace oca
