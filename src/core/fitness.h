// Fitness functions over node subsets, evaluated from the triple
// (s, ein, vol) = (|S|, internal edges, total degree of members).
//
// The paper's definitive fitness is the directed Laplacian of phi over
// the oriented search-space graph (Section III):
//
//   L(S) = s - sqrt(s(s-1)) + 2 c Ein(S) (1 - (s-2)/sqrt(s(s-1)))
//
// Additional fitness kinds are provided for the ablation study (DESIGN.md
// experiment A1) and for the LFK baseline, which shares the same
// incremental-state machinery.
//
// Weighted graphs: SubsetStats additionally carries the weighted
// analogues (w_in, w_volume) and FitnessParams::use_weights switches
// every kind to evaluate from them — Ein(S) becomes the total internal
// edge WEIGHT, volume the weighted degree sum. On an unweighted graph
// (or one whose weights are all 1.0) the weighted fields equal the
// integer ones exactly (sums of 1.0 are exact in double), so
// use_weights is a no-op there by construction. With use_weights off,
// evaluation reads only the integer fields — the historical code path,
// bit for bit.

#ifndef OCA_CORE_FITNESS_H_
#define OCA_CORE_FITNESS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace oca {

/// Subset statistics sufficient to evaluate every fitness in the library.
struct SubsetStats {
  size_t size = 0;       // s = |S|
  size_t ein = 0;        // edges with both ends in S
  size_t volume = 0;     // sum of graph degrees of members
  double w_in = 0.0;     // total weight of internal edges
  double w_volume = 0.0; // sum of weighted degrees of members

  /// Edges leaving S (cut size): volume - 2*ein.
  size_t Eout() const { return volume - 2 * ein; }

  /// Weight leaving S: w_volume - 2*w_in.
  double WOut() const { return w_volume - 2.0 * w_in; }
};

/// Which objective the local search maximizes.
enum class FitnessKind {
  kDirectedLaplacian,  // the paper's L — the OCA objective
  kRawPhi,             // phi itself (monotone; ablation: degenerates)
  kConductanceLike,    // ein / (ein + eout) — classic local objective
  kLfk,                // LFK: kin / (kin + kout)^alpha
};

std::string_view FitnessKindName(FitnessKind kind);

/// Parameters shared by all fitness kinds.
struct FitnessParams {
  FitnessKind kind = FitnessKind::kDirectedLaplacian;
  double c = 0.5;       // coupling constant (directed Laplacian / raw phi)
  double alpha = 1.0;   // LFK exponent
  /// Evaluate from the weighted subset statistics (w_in / w_volume)
  /// instead of the integer edge counts. Meaningful on weighted graphs;
  /// on unweighted ones it is equivalent to all weights being 1.0.
  /// Deg-in-ranked kinds climb on bucket queues either way: keyed on
  /// the quantized weighted deg-in on weighted graphs, and on the exact
  /// deg-in on unweighted ones (exact there — all-1.0 weights mirror
  /// the integer counters bit for bit).
  bool use_weights = false;
};

/// The paper's directed Laplacian L. Handles the boundary cases
/// L(empty) = 0 and L(singleton) = 1 (the s=1 limit: the sqrt term is 0
/// and a singleton has no internal edges).
double DirectedLaplacianFitness(size_t s, size_t ein, double c);

/// Weighted directed Laplacian: Ein(S) generalized to the total
/// internal edge weight. Identical to the integer form when win is an
/// exact integer.
double WeightedDirectedLaplacianFitness(size_t s, double win, double c);

/// LFK fitness kin/(kin+kout)^alpha with kin = 2*ein, kout = Eout.
/// Returns 0 for the empty set.
double LfkFitness(size_t ein, size_t eout, double alpha);

/// Weighted LFK: kin = 2*w_in, kout = WOut.
double WeightedLfkFitness(double win, double wout, double alpha);

/// Dispatch on kind (and params.use_weights).
double EvaluateFitness(const SubsetStats& stats, const FitnessParams& params);

/// Fitness change if a node with `deg_in` neighbors inside S and graph
/// degree `deg` were added. O(1). Integer path — ignores use_weights.
double FitnessGainAdd(const SubsetStats& stats, size_t deg_in, size_t deg,
                      const FitnessParams& params);

/// Fitness change if a member with `deg_in` neighbors inside S and graph
/// degree `deg` were removed. O(1). Integer path — ignores use_weights.
double FitnessGainRemove(const SubsetStats& stats, size_t deg_in, size_t deg,
                         const FitnessParams& params);

/// Weighted-fitness change if a node whose edges into S total weight
/// `w_deg_in` and whose weighted degree is `w_deg` were added. O(1).
/// Call only with params.use_weights set.
double WeightedFitnessGainAdd(const SubsetStats& stats, double w_deg_in,
                              double w_deg, const FitnessParams& params);

/// Weighted-fitness change for removing such a member. O(1).
double WeightedFitnessGainRemove(const SubsetStats& stats, double w_deg_in,
                                 double w_deg, const FitnessParams& params);

}  // namespace oca

#endif  // OCA_CORE_FITNESS_H_
