// OCA: Overlapping Community Search (the paper's algorithm, Section IV).
//
// Pipeline:
//   1. resolve the coupling constant c = -1/lambda_min (SpectralEngine);
//   2. repeatedly expand random seed neighborhoods by greedy maximization
//      of the directed-Laplacian fitness L until the halting criterion
//      fires — each local maximum is one community;
//   3. merge near-duplicate communities (rho-threshold postprocessing);
//   4. optionally assign orphan nodes to their neighbors' communities.
//
// This header is the main public entry point of the library.

#ifndef OCA_CORE_OCA_H_
#define OCA_CORE_OCA_H_

#include <string>

#include "core/cover.h"
#include "core/merge_postprocess.h"
#include "core/oca_options.h"
#include "core/orphan_assignment.h"
#include "graph/graph.h"
#include "util/result.h"

namespace oca {

/// Everything OCA reports back besides the cover itself.
struct OcaRunStats {
  double coupling_constant = 0.0;   // resolved c (post admissible clamp)
  /// The adjacency lambda_min behind `coupling_constant` whenever one is
  /// known: RunOca fills it when it resolves c spectrally (including
  /// engine cache hits), and hierarchy builders backfill it from their
  /// shared engine's coupling solve even though each level runs with an
  /// explicit per-level c. It is 0 only when the caller supplied c
  /// directly to RunOca, where no spectral context exists.
  double lambda_min = 0.0;
  size_t spectral_iterations = 0;   // Lanczos steps spent resolving c
                                    // (0: supplied or engine cache hit)
  size_t seeds_expanded = 0;
  /// GreedyLocalSearch calls the run made. A serial run climbs exactly
  /// the seeds it records (== seeds_expanded); a pooled run climbs whole
  /// batches ahead, so it can climb up to batch_size - 1 seeds past the
  /// halt. Depends on the thread count, so Digest() and .ocac leave it
  /// out.
  size_t climbs = 0;
  size_t raw_communities = 0;       // distinct local maxima before merging
  size_t discarded_small = 0;       // below min_community_size
  std::string halting_reason;
  double coverage_fraction = 0.0;   // after expansion, before orphans
  MergeStats merge;
  OrphanAssignmentStats orphans;
  double seconds_spectral = 0.0;
  double seconds_search = 0.0;
  double seconds_postprocess = 0.0;

  double TotalSeconds() const {
    return seconds_spectral + seconds_search + seconds_postprocess;
  }
};

/// OCA's output: the overlapping cover plus run statistics.
struct OcaResult {
  Cover cover;
  OcaRunStats stats;
};

/// Runs the full OCA pipeline on `graph`. Deterministic per
/// options.seed (including in multi-threaded mode). Errors on an empty
/// or edgeless graph (no community structure to search) and on invalid
/// options. A caller-held spectral engine rides in OcaOptions::engine
/// (see its docs for the sharing/threading contract).
Result<OcaResult> RunOca(const Graph& graph, const OcaOptions& options = {});

}  // namespace oca

#endif  // OCA_CORE_OCA_H_
