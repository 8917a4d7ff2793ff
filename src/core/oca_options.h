// Aggregate configuration of the OCA pipeline.

#ifndef OCA_CORE_OCA_OPTIONS_H_
#define OCA_CORE_OCA_OPTIONS_H_

#include <cstdint>

#include "core/halting.h"
#include "core/local_search.h"
#include "core/merge_postprocess.h"
#include "core/seeding.h"
#include "spectral/spectral_engine.h"

namespace oca {

/// Everything OCA needs. Defaults are the paper's standard setup: random
/// neighborhoods around uncovered seeds, directed-Laplacian fitness with
/// the spectral c, merge postprocessing on, orphan assignment off (the
/// paper only applies it "in some cases").
struct OcaOptions {
  /// Master seed; all randomness derives from it.
  uint64_t seed = 42;

  /// Optional caller-held spectral engine (non-owning; null = RunOca
  /// builds its own per call). Sharing one engine across repeated runs
  /// over the same graph — hierarchy levels, parameter sweeps — resolves
  /// the coupling constant once (per-graph cache) and exposes the
  /// warm-start hook for nested solves. The engine must outlive the run
  /// and is NOT thread-safe: concurrent RunOca calls need one engine
  /// each (SpectralEngineSet), never a shared one. Results do not depend
  /// on which engine ran the solve — start vectors derive from the
  /// engine's configured seed, not its history.
  SpectralEngine* engine = nullptr;

  /// Coupling constant c. <= 0 means "compute -1/lambda_min with the
  /// SpectralEngine's Lanczos solve" (the paper's choice, the largest
  /// admissible value); `power_method` sets that solve's step budget,
  /// tolerance and seed.
  double coupling_constant = 0.0;
  PowerMethodOptions power_method;

  SeedingOptions seeding;
  HaltingOptions halting;

  /// Local-search controls. `fitness.kind` is normally the directed
  /// Laplacian; ablation benches override it. `fitness.c` is overwritten
  /// by the resolved coupling constant.
  LocalSearchOptions search;

  /// Discard local maxima smaller than this before postprocessing
  /// (singletons and near-singletons are seeds that failed to grow).
  size_t min_community_size = 3;

  MergeOptions merge;
  bool assign_orphans = false;

  /// Worker threads for seed expansion (1 = serial; 0 = hardware).
  size_t num_threads = 1;
  /// Seeds drawn per batch, in every mode and independent of the thread
  /// count, so every run draws the same seeds. A serial run climbs a
  /// drawn seed only when its seed loop reaches it; a pooled run climbs
  /// the whole batch ahead to feed its workers, up to batch_size - 1
  /// climbs past the halt (OcaRunStats::climbs).
  size_t batch_size = 64;
};

}  // namespace oca

#endif  // OCA_CORE_OCA_OPTIONS_H_
