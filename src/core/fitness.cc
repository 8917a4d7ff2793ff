#include "core/fitness.h"

#include <cassert>
#include <cmath>

namespace oca {

std::string_view FitnessKindName(FitnessKind kind) {
  switch (kind) {
    case FitnessKind::kDirectedLaplacian:
      return "directed_laplacian";
    case FitnessKind::kRawPhi:
      return "raw_phi";
    case FitnessKind::kConductanceLike:
      return "conductance_like";
    case FitnessKind::kLfk:
      return "lfk";
  }
  return "unknown";
}

double DirectedLaplacianFitness(size_t s, size_t ein, double c) {
  if (s == 0) return 0.0;
  if (s == 1) return 1.0;
  double sd = static_cast<double>(s);
  double root = std::sqrt(sd * (sd - 1.0));
  return sd - root +
         2.0 * c * static_cast<double>(ein) * (1.0 - (sd - 2.0) / root);
}

double WeightedDirectedLaplacianFitness(size_t s, double win, double c) {
  if (s == 0) return 0.0;
  if (s == 1) return 1.0;
  double sd = static_cast<double>(s);
  double root = std::sqrt(sd * (sd - 1.0));
  return sd - root + 2.0 * c * win * (1.0 - (sd - 2.0) / root);
}

double LfkFitness(size_t ein, size_t eout, double alpha) {
  double kin = 2.0 * static_cast<double>(ein);
  double kout = static_cast<double>(eout);
  double denom = kin + kout;
  if (denom <= 0.0) return 0.0;
  return kin / std::pow(denom, alpha);
}

double WeightedLfkFitness(double win, double wout, double alpha) {
  double kin = 2.0 * win;
  double denom = kin + wout;
  if (denom <= 0.0) return 0.0;
  return kin / std::pow(denom, alpha);
}

double EvaluateFitness(const SubsetStats& stats, const FitnessParams& params) {
  if (params.use_weights) {
    switch (params.kind) {
      case FitnessKind::kDirectedLaplacian:
        return WeightedDirectedLaplacianFitness(stats.size, stats.w_in,
                                                params.c);
      case FitnessKind::kRawPhi:
        return static_cast<double>(stats.size) + 2.0 * params.c * stats.w_in;
      case FitnessKind::kConductanceLike: {
        double denom = stats.w_in + stats.WOut();
        return denom > 0.0 ? stats.w_in / denom : 0.0;
      }
      case FitnessKind::kLfk:
        return WeightedLfkFitness(stats.w_in, stats.WOut(), params.alpha);
    }
    return 0.0;
  }
  switch (params.kind) {
    case FitnessKind::kDirectedLaplacian:
      return DirectedLaplacianFitness(stats.size, stats.ein, params.c);
    case FitnessKind::kRawPhi:
      return static_cast<double>(stats.size) +
             2.0 * params.c * static_cast<double>(stats.ein);
    case FitnessKind::kConductanceLike: {
      double ein = static_cast<double>(stats.ein);
      double eout = static_cast<double>(stats.Eout());
      double denom = ein + eout;
      return denom > 0.0 ? ein / denom : 0.0;
    }
    case FitnessKind::kLfk:
      return LfkFitness(stats.ein, stats.Eout(), params.alpha);
  }
  return 0.0;
}

double FitnessGainAdd(const SubsetStats& stats, size_t deg_in, size_t deg,
                      const FitnessParams& params) {
  assert(deg_in <= deg);
  SubsetStats after = stats;
  after.size += 1;
  after.ein += deg_in;
  after.volume += deg;
  return EvaluateFitness(after, params) - EvaluateFitness(stats, params);
}

double FitnessGainRemove(const SubsetStats& stats, size_t deg_in, size_t deg,
                         const FitnessParams& params) {
  assert(stats.size >= 1);
  assert(stats.ein >= deg_in);
  assert(stats.volume >= deg);
  SubsetStats after = stats;
  after.size -= 1;
  after.ein -= deg_in;
  after.volume -= deg;
  return EvaluateFitness(after, params) - EvaluateFitness(stats, params);
}

double WeightedFitnessGainAdd(const SubsetStats& stats, double w_deg_in,
                              double w_deg, const FitnessParams& params) {
  assert(params.use_weights);
  // Both are sums of the same positive weights, but w_deg_in adds them in
  // the order members joined S and w_deg in neighbour order, so they may
  // differ by a few ulps either way; allow for that rounding.
  assert(w_deg_in <= w_deg * (1 + 1e-9));
  // The weighted evaluation reads only (size, w_in, w_volume); the
  // integer fields pass through unchanged.
  SubsetStats after = stats;
  after.size += 1;
  after.w_in += w_deg_in;
  after.w_volume += w_deg;
  return EvaluateFitness(after, params) - EvaluateFitness(stats, params);
}

double WeightedFitnessGainRemove(const SubsetStats& stats, double w_deg_in,
                                 double w_deg, const FitnessParams& params) {
  assert(params.use_weights);
  assert(stats.size >= 1);
  SubsetStats after = stats;
  after.size -= 1;
  after.w_in -= w_deg_in;
  after.w_volume -= w_deg;
  return EvaluateFitness(after, params) - EvaluateFitness(stats, params);
}

}  // namespace oca
