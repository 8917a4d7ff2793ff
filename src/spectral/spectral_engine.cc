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

double Norm2(const std::vector<double>& x) {
  double s = 0.0;
  for (double v : x) s += v * v;
  return std::sqrt(s);
}

}  // namespace

/// Per-end (lambda_min / lambda_max) convergence tracker: the raw Ritz
/// value, its Aitken-extrapolated refinement, and the checkpoint history
/// the extrapolation runs on.
struct SpectralEngine::EndTracker {
  bool wanted = false;
  bool converged = false;
  double theta = 0.0;       // latest raw Ritz value
  double value = 0.0;       // reported value (extrapolated when reliable)
  double error_estimate = 0.0;  // |extrapolated - raw| at the stop
  size_t converged_at = 0;  // Lanczos step of convergence
  double hist[3] = {0.0, 0.0, 0.0};
  int hist_count = 0;
};

struct SpectralEngine::SweepOutcome {
  EndTracker min_end;
  EndTracker max_end;
  size_t steps = 0;  // Lanczos steps taken (== size of the tridiagonal)
};

SpectralEngineOptions EngineOptionsFrom(const PowerMethodOptions& pm,
                                        size_t max_steps) {
  SpectralEngineOptions options;
  options.seed = pm.seed;
  options.value_tolerance = pm.tolerance;
  options.coupling_tolerance = pm.coupling_tolerance;
  options.max_steps = max_steps;
  return options;
}

SpectralEngineOptions ValueSolveOptionsFrom(const PowerMethodOptions& pm) {
  return EngineOptionsFrom(pm, std::max<size_t>(2 * pm.max_iterations, 128));
}

SpectralEngine::SpectralEngine(const SpectralEngineOptions& options)
    : options_(options) {}

SpectralEngine::~SpectralEngine() = default;

size_t SpectralEngine::ResolvedThreads() const {
  return options_.num_threads == 0 ? DefaultThreadCount()
                                   : options_.num_threads;
}

bool SpectralEngine::UseParallel(const Graph& graph) const {
  return ResolvedThreads() > 1 &&
         graph.neighbor_array().size() >= options_.parallel_min_edges;
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

double SpectralEngine::BisectExtreme(size_t k, bool smallest, double lo,
                                     double hi, double abs_tol) const {
  for (int iter = 0; iter < 200 && hi - lo > abs_tol; ++iter) {
    double mid = 0.5 * (lo + hi);
    size_t below = SturmCountBelow(k, mid);
    if (smallest ? below >= 1 : below >= k) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double SpectralEngine::TridiagEigenvector(size_t k, double theta,
                                          std::vector<double>* s) const {
  tri_s_.assign(k, 1.0 / std::sqrt(static_cast<double>(k)));
  if (k == 1) {
    tri_s_[0] = 1.0;
  } else {
    // Two sweeps of inverse iteration with a Thomas solve; extreme Ritz
    // values are well separated inside T, so this converges immediately.
    for (int sweep = 0; sweep < 2; ++sweep) {
      tri_d_.resize(k);
      tri_rhs_ = tri_s_;
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
      tri_s_[k - 1] = tri_rhs_[k - 1] / tri_d_[k - 1];
      for (size_t i = k - 1; i-- > 0;) {
        tri_s_[i] = (tri_rhs_[i] - beta_[i] * tri_s_[i + 1]) / tri_d_[i];
      }
      double norm = Norm2(tri_s_);
      if (!(norm > 0.0) || !std::isfinite(norm)) {
        tri_s_.assign(k, 1.0 / std::sqrt(static_cast<double>(k)));
        break;
      }
      for (double& x : tri_s_) x /= norm;
    }
  }
  if (s != nullptr) *s = tri_s_;
  return tri_s_[k - 1];
}

SpectralEngine::SweepOutcome SpectralEngine::LanczosSweep(
    const Graph& graph, bool need_min, bool need_max, double tol_min,
    double tol_max, size_t step_cap, double residual_target,
    const std::vector<double>* ritz_weights, size_t replay_steps,
    std::vector<double>* eigenvector) {
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

  const bool replay = ritz_weights != nullptr;
  const size_t cap = replay ? replay_steps : std::max<size_t>(step_cap, 1);

  std::copy(start_.begin(), start_.end(), v_.begin());
  std::fill(vprev_.begin(), vprev_.begin() + n, 0.0);
  alpha_.clear();
  beta_.clear();
  beta_sq_.clear();
  // Breakdown restarts draw from a sweep-local generator so a replay
  // pass reproduces pass 1 bit-for-bit.
  Rng restart_rng(options_.seed ^ 0xA17C3B5Dull);

  SweepOutcome out;
  out.min_end.wanted = need_min;
  out.max_end.wanted = need_max;
  if (replay && eigenvector != nullptr) eigenvector->assign(n, 0.0);

  auto check_end = [&](EndTracker* end, bool smallest, double tol,
                       size_t k, size_t step, double current_beta) {
    double scale_guess =
        std::max(1.0, std::fabs(end->hist_count > 0 ? end->theta : gersh));
    double abs_tol = std::max(1e-13, 0.02 * tol * scale_guess);
    double theta = BisectExtreme(k, smallest, glo, ghi, abs_tol);
    end->theta = theta;
    end->value = theta;
    if (end->hist_count < 3) {
      end->hist[end->hist_count++] = theta;
    } else {
      end->hist[0] = end->hist[1];
      end->hist[1] = end->hist[2];
      end->hist[2] = theta;
    }
    if (step < kMinStepsBeforeStop || end->hist_count < 3) return;
    double scale = std::max(1.0, std::fabs(theta));
    double d1 = end->hist[1] - end->hist[0];
    double d2 = end->hist[2] - end->hist[1];
    // Raw stagnation gate: the Ritz sequence must already be moving at
    // the tolerance scale before extrapolation is trusted.
    if (std::fabs(d2) > 2.0 * tol * scale) return;
    double extrap = theta;
    bool extrap_accepted = false;
    double dd = d2 - d1;
    if (dd != 0.0 && std::fabs(d2) < std::fabs(d1)) {
      double cand = theta - d2 * d2 / dd;
      // Extreme Ritz sequences are monotone (Cauchy interlacing); reject
      // extrapolations that violate that or leave the Gershgorin hull.
      bool monotone_ok = smallest ? cand <= theta + abs_tol
                                  : cand >= theta - abs_tol;
      if (monotone_ok && std::fabs(cand - theta) <= 50.0 * std::fabs(d2) &&
          cand >= glo && cand <= ghi) {
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
    if (residual_target > 0.0) {
      // Eigenpair mode: additionally require the Ritz residual bound
      // beta_k * |s_k| to be small so the reconstructed vector is good.
      double s_last = TridiagEigenvector(k, theta, nullptr);
      if (std::fabs(current_beta * s_last) > residual_target * scale) return;
    }
    end->converged = true;
    end->value = extrap;
    // Remaining-error bound for the conservative coupling bias: the
    // Aitken correction estimates the error of the RAW value; adding
    // half the last raw step covers the multi-mode case where the
    // correction alone under-estimates, and the tol-proportional floor
    // covers a deceptively stagnant sequence whose correction shrank
    // faster than the true residual error. None of the three terms
    // costs a significant digit (each is <= tol * scale at the stop).
    end->error_estimate =
        std::max(err_est + 0.5 * std::fabs(d2), 0.05 * tol * scale);
    end->converged_at = step;
  };

  double beta_prev = 0.0;
  for (size_t step = 1; step <= cap; ++step) {
    if (replay) {
      double wgt = (*ritz_weights)[step - 1];
      if (eigenvector != nullptr && wgt != 0.0) {
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

    if (!replay) {
      const size_t k = alpha_.size();
      bool at_checkpoint =
          (step % kCheckInterval == 0) || breakdown || step == cap;
      if (at_checkpoint) {
        if (need_min && !out.min_end.converged) {
          check_end(&out.min_end, /*smallest=*/true, tol_min, k, step, b);
        }
        if (need_max && !out.max_end.converged) {
          check_end(&out.max_end, /*smallest=*/false, tol_max, k, step, b);
        }
        if (breakdown && k >= n) {
          // The Krylov blocks exhausted the whole space: every Ritz value
          // is an exact eigenvalue, so the extremes are final (up to the
          // bisection width, which becomes the error estimate).
          for (EndTracker* end : {&out.min_end, &out.max_end}) {
            if (end->wanted && !end->converged) {
              double tol = end == &out.min_end ? tol_min : tol_max;
              end->converged = true;
              end->value = end->theta;
              end->error_estimate = std::max(
                  1e-13, 0.02 * tol * std::max(1.0, std::fabs(end->theta)));
              end->converged_at = step;
            }
          }
        }
        bool done = (!need_min || out.min_end.converged) &&
                    (!need_max || out.max_end.converged);
        if (done) break;
      }
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

  // A wanted end that ran out of steps gets a best-effort error scale —
  // the last raw checkpoint step. This is NOT a bound (the remaining
  // geometric tail can exceed it); callers see converged == false and
  // the coupling bias at least leans the right way instead of trusting
  // the raw Ritz value verbatim.
  if (!replay) {
    for (EndTracker* end : {&out.min_end, &out.max_end}) {
      if (end->wanted && !end->converged && end->hist_count >= 2) {
        end->error_estimate = std::fabs(end->hist[end->hist_count - 1] -
                                        end->hist[end->hist_count - 2]);
      }
    }
  }

  return out;
}

SpectralEngine::CacheEntry* SpectralEngine::FindEntry(const Graph& graph) {
  for (auto& entry : cache_) {
    if (entry.graph == &graph && entry.nodes == graph.num_nodes() &&
        entry.edges == graph.num_edges()) {
      return &entry;
    }
  }
  return nullptr;
}

const SpectralEngine::CacheEntry* SpectralEngine::FindEntry(
    const Graph& graph) const {
  return const_cast<SpectralEngine*>(this)->FindEntry(graph);
}

SpectralEngine::CacheEntry* SpectralEngine::TouchEntry(const Graph& graph) {
  if (CacheEntry* found = FindEntry(graph)) return found;
  if (cache_.size() >= kMaxCacheEntries) {
    cache_.erase(cache_.begin());
  }
  CacheEntry entry;
  entry.graph = &graph;
  entry.nodes = graph.num_nodes();
  entry.edges = graph.num_edges();
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

Result<ExtremeEigenvalues> SpectralEngine::Extremes(const Graph& graph) {
  if (Status s = ValidateGraph(graph); !s.ok()) return s;
  if (CacheEntry* entry = FindEntry(graph); entry && entry->has_extremes) {
    ++cache_hits_;
    ConsumeWarmStartOnCacheHit(graph.num_nodes());
    return entry->extremes;
  }

  PrepareStartVector(graph);
  SweepOutcome sweep = LanczosSweep(
      graph, /*need_min=*/true, /*need_max=*/true, options_.value_tolerance,
      options_.value_tolerance, options_.max_steps, /*residual_target=*/0.0,
      nullptr, 0, nullptr);

  ExtremeEigenvalues out;
  out.lambda_max = sweep.max_end.value;
  out.lambda_min = sweep.min_end.value;
  out.iterations_max =
      sweep.max_end.converged ? sweep.max_end.converged_at : sweep.steps;
  out.iterations_min =
      sweep.min_end.converged ? sweep.min_end.converged_at : sweep.steps;
  out.converged = sweep.max_end.converged && sweep.min_end.converged;

  CacheEntry* entry = TouchEntry(graph);
  entry->has_extremes = true;
  entry->extremes = out;
  // Seed the coupling cache only from a CONVERGED min end: the
  // admissibility bias is only a guarantee then (an unconverged Ritz
  // value sits above lambda_min by an unbounded tail, and a later
  // CouplingConstant call would return the overshoot as a cache hit).
  if (!entry->has_coupling && out.lambda_min < 0.0 &&
      sweep.min_end.converged) {
    double safe_min = out.lambda_min - sweep.min_end.error_estimate;
    double c = ClampCouplingToAdmissible(-1.0 / safe_min);
    if (c > 0.0) {
      entry->coupling = {c, out.lambda_min, sweep.steps, out.converged};
      entry->has_coupling = true;
    }
  }
  return out;
}

Result<CouplingResult> SpectralEngine::CouplingConstant(const Graph& graph) {
  return CouplingConstantWithVector(graph, nullptr);
}

Result<CouplingResult> SpectralEngine::CouplingConstantWithVector(
    const Graph& graph, std::vector<double>* eigenvector) {
  if (Status s = ValidateGraph(graph); !s.ok()) return s;
  const bool want_vector = eigenvector != nullptr;
  if (CacheEntry* entry = FindEntry(graph); entry && entry->has_coupling &&
      (!want_vector || !entry->min_eigenvector.empty())) {
    ++cache_hits_;
    ConsumeWarmStartOnCacheHit(graph.num_nodes());
    CouplingResult hit = entry->coupling;
    hit.iterations = 0;  // answered from cache
    if (want_vector) *eigenvector = entry->min_eigenvector;
    return hit;
  }

  PrepareStartVector(graph);
  SweepOutcome sweep = LanczosSweep(
      graph, /*need_min=*/true, /*need_max=*/false,
      options_.coupling_tolerance, options_.coupling_tolerance,
      options_.max_steps, /*residual_target=*/0.0, nullptr, 0, nullptr);

  double lambda_min = sweep.min_end.value;
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
  double safe_min = lambda_min - sweep.min_end.error_estimate;
  double c = ClampCouplingToAdmissible(-1.0 / safe_min);
  if (c <= 0.0) {
    return Status::Internal("coupling constant must be positive");
  }

  CouplingResult result{c, lambda_min, sweep.steps, sweep.min_end.converged};
  std::vector<double> vec;
  if (want_vector) {
    // Raw Ritz value: the reconstruction must match the basis that was
    // actually built, not the extrapolated refinement.
    vec = ReconstructRitzVector(graph, sweep.min_end.theta);
  }
  CacheEntry* entry = TouchEntry(graph);
  if (entry->has_coupling) {
    // A vector-less cache hit forced a re-sweep; keep the cached coupling
    // values so repeated calls agree exactly, and only adopt the vector.
    result = entry->coupling;
    result.iterations = sweep.steps;
  } else {
    entry->has_coupling = true;
    entry->coupling = result;
  }
  if (want_vector) {
    entry->min_eigenvector = vec;
    *eigenvector = std::move(vec);
  }
  return result;
}

Result<EigenEstimate> SpectralEngine::EigenpairImpl(
    const Graph& graph, const PowerMethodOptions& pm, bool smallest) {
  if (Status s = ValidateGraph(graph); !s.ok()) return s;

  const double tol = std::max(pm.tolerance, 1e-14);
  const double residual_target = std::sqrt(tol);
  PrepareStartVector(graph);
  SweepOutcome sweep =
      LanczosSweep(graph, smallest, !smallest, tol, tol, pm.max_iterations,
                   residual_target, nullptr, 0, nullptr);
  const EndTracker& end = smallest ? sweep.min_end : sweep.max_end;

  EigenEstimate est;
  est.eigenvalue = end.theta;  // raw Ritz value, consistent with the vector
  est.iterations = sweep.steps;
  est.converged = end.converged;
  est.eigenvector = ReconstructRitzVector(graph, end.theta);
  return est;
}

std::vector<double> SpectralEngine::ReconstructRitzVector(const Graph& graph,
                                                          double theta) {
  // Replay pass: y = sum_j s_j v_j over the basis of the sweep that just
  // ran (same start vector, same restart stream, bit-identical vectors).
  const size_t k = alpha_.size();
  std::vector<double> weights;
  TridiagEigenvector(k, theta, &weights);
  std::vector<double> vec;
  LanczosSweep(graph, false, false, 0.0, 0.0, 0, 0.0, &weights, k, &vec);
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

Result<EigenEstimate> SpectralEngine::Dominant(const Graph& graph,
                                               const PowerMethodOptions& pm) {
  return EigenpairImpl(graph, pm, /*smallest=*/false);
}

Result<EigenEstimate> SpectralEngine::MinEigenpair(
    const Graph& graph, const PowerMethodOptions& pm) {
  OCA_ASSIGN_OR_RETURN(EigenEstimate est,
                       EigenpairImpl(graph, pm, /*smallest=*/true));
  CacheEntry* entry = TouchEntry(graph);
  entry->min_eigenvector = est.eigenvector;
  return est;
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

bool SpectralEngine::GetCachedMinEigenvector(const Graph& graph,
                                             std::vector<double>* out) const {
  const CacheEntry* entry = FindEntry(graph);
  if (entry == nullptr || entry->min_eigenvector.empty()) return false;
  *out = entry->min_eigenvector;
  return true;
}

void SpectralEngine::Forget(const Graph& graph) {
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->graph == &graph) {
      cache_.erase(it);
      return;
    }
  }
}

void SpectralEngine::ClearCache() { cache_.clear(); }

SpectralEngineSet::SpectralEngineSet(size_t count,
                                     const SpectralEngineOptions& options) {
  engines_.reserve(std::max<size_t>(1, count));
  for (size_t i = 0; i < std::max<size_t>(1, count); ++i) {
    engines_.push_back(std::make_unique<SpectralEngine>(options));
  }
}

}  // namespace oca
