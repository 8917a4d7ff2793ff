#include "core/oca.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "core/parallel_driver.h"
#include "spectral/spectral_engine.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace oca {

namespace {

// 64-bit FNV-1a over the sorted member list, for duplicate detection.
uint64_t HashCommunity(const Community& c) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (NodeId v : c) {
    h ^= v;
    h *= 0x100000001b3ull;
  }
  h ^= c.size();
  h *= 0x100000001b3ull;
  return h;
}

Status ValidateOptions(const OcaOptions& options) {
  // Same admissible bound the spectral path clamps to: a supplied c and
  // a computed c face one rule (kMaxCouplingConstant), so a caller
  // can always feed a previous run's reported c back in verbatim.
  if (options.coupling_constant > kMaxCouplingConstant) {
    return Status::InvalidArgument(
        "coupling constant exceeds the admissible bound (must be < 1)");
  }
  if (options.seeding.neighbor_keep_probability < 0.0 ||
      options.seeding.neighbor_keep_probability > 1.0) {
    return Status::InvalidArgument("neighbor keep probability not in [0,1]");
  }
  if (options.halting.max_seeds == 0 &&
      options.halting.target_coverage > 1.0 &&
      options.halting.stagnation_window == 0) {
    return Status::InvalidArgument(
        "all halting criteria disabled: the seed loop would never stop");
  }
  return Status::OK();
}

}  // namespace

Result<OcaResult> RunOca(const Graph& graph, const OcaOptions& options) {
  SpectralEngine* engine = options.engine;
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("OCA on an empty graph");
  }
  if (graph.num_edges() == 0) {
    return Status::FailedPrecondition(
        "OCA on an edgeless graph: no community structure to search");
  }
  OCA_RETURN_IF_ERROR(ValidateOptions(options));

  OcaResult result;
  Timer timer;

  // --- 1. Coupling constant (engine-resolved unless supplied). ---
  double c = options.coupling_constant;
  if (c <= 0.0) {
    std::unique_ptr<SpectralEngine> owned;
    if (engine == nullptr) {
      SpectralEngineOptions engine_options =
          ValueSolveOptionsFrom(options.power_method);
      engine_options.seed ^= options.seed;
      engine_options.num_threads = options.num_threads;
      owned = std::make_unique<SpectralEngine>(engine_options);
      engine = owned.get();
    }
    OCA_ASSIGN_OR_RETURN(CouplingResult coupling,
                         engine->CouplingConstant(graph));
    result.stats.lambda_min = coupling.lambda_min;
    result.stats.spectral_iterations = coupling.iterations;
    // The computed path obeys the same admissible bound as a supplied c
    // (the engine clamps too — e.g. a triangle's lambda_min = -1 yields
    // exactly 1.0); the clamp is explicit here so the recorded
    // stats.coupling_constant is always the value the fitness ran with.
    c = ClampCouplingToAdmissible(coupling.c);
    if (c <= 0.0) {
      return Status::Internal("computed coupling constant non-positive");
    }
  }
  result.stats.coupling_constant = c;
  result.stats.seconds_spectral = timer.ElapsedSeconds();
  timer.Restart();

  // --- 2. Multi-seed expansion. ---
  LocalSearchOptions search = options.search;
  search.fitness.c = c;

  Rng master(options.seed);
  Seeder seeder(graph, options.seeding, master.Fork(1));
  HaltingTracker halting(options.halting);

  std::unique_ptr<ThreadPool> pool;
  size_t threads = options.num_threads == 0 ? DefaultThreadCount()
                                            : options.num_threads;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
  }
  // Batch size is independent of the thread count so that serial and
  // parallel runs draw identical seed sequences and produce identical
  // covers: each batch's seeds are drawn sequentially up-front, then
  // expanded and aggregated in slot order. The expander climbs a serial
  // run's slot only when the aggregation reaches it, and keeps a pooled
  // run at most 2 slots per worker ahead of it, so a halt leaves few
  // slots climbed past it. Either way every aggregated slot holds the
  // same climb, because a climb depends only on (graph, seed set,
  // options).
  const size_t batch = std::max<size_t>(options.batch_size, 1);

  std::unordered_set<uint64_t> seen_hashes;
  Cover raw_cover;
  {
    // Scoped so that the climbs still in flight at a halt finish before
    // the search time is read.
    SeedExpander expander(graph, search, pool.get());
    while (!halting.ShouldStop()) {
      // Draw a batch of seed sets (sequentially, for determinism). Every
      // drawn seed node is immediately spent so repeat draws cannot stall
      // progress.
      std::vector<Community> seed_sets;
      seed_sets.reserve(batch);
      size_t remaining_budget =
          options.halting.max_seeds == 0
              ? batch
              : std::min(batch,
                         options.halting.max_seeds - halting.seeds_run());
      for (size_t i = 0; i < remaining_budget; ++i) {
        // Once every node is covered or already spent, further draws can
        // only repeat exhausted nodes. A repeat draw would build a fresh
        // random neighborhood, but the spent-seed policy deliberately
        // treats a node's first expansion as its one shot (see
        // MarkSeedSpent): re-draws overwhelmingly rediscover known
        // structure, and before this check they just burned seeds until
        // the stagnation window fired. Stop drawing; the batch in hand is
        // still expanded below.
        if (seeder.Exhausted()) break;
        NodeId seed_node = seeder.NextSeedNode();
        seeder.MarkSeedSpent(seed_node);
        seed_sets.push_back(seeder.BuildSeedSet(seed_node));
      }
      if (seed_sets.empty()) {
        // Nothing left to draw at the top of a batch: halt now with an
        // honest reason instead of burning duplicate seeds until the
        // stagnation window fires.
        if (seeder.Exhausted()) halting.NoteSeedsExhausted();
        break;
      }

      expander.Reset(std::move(seed_sets));
      for (size_t i = 0; i < expander.size(); ++i) {
        LocalSearchResult expansion = expander.Take(i);
        // A seed is "novel" for the stagnation criterion only when its
        // community covers at least one new node: distinct-hash near
        // duplicates of known communities (which the merge
        // postprocessing collapses anyway) must not keep the loop alive
        // forever.
        bool novel = false;
        if (expansion.community.size() >= options.min_community_size) {
          uint64_t h = HashCommunity(expansion.community);
          if (seen_hashes.insert(h).second) {
            novel = seeder.MarkCovered(expansion.community) > 0;
            raw_cover.Add(std::move(expansion.community));
          }
        } else if (!expansion.community.empty()) {
          ++result.stats.discarded_small;
        }
        halting.RecordSeed(novel, seeder.CoverageFraction());
        if (halting.ShouldStop()) break;
      }
    }
    result.stats.climbs = expander.climbs();
  }
  result.stats.seeds_expanded = halting.seeds_run();
  result.stats.halting_reason = halting.Reason();
  result.stats.raw_communities = raw_cover.size();
  result.stats.coverage_fraction = seeder.CoverageFraction();
  result.stats.seconds_search = timer.ElapsedSeconds();
  timer.Restart();

  // --- 3/4. Postprocessing. ---
  MergeOptions merge = options.merge;
  if (merge.min_community_size == 0) {
    merge.min_community_size = options.min_community_size;
  }
  result.cover =
      MergeSimilarCommunities(std::move(raw_cover), merge, &result.stats.merge);
  if (options.assign_orphans) {
    result.cover = AssignOrphans(graph, std::move(result.cover),
                                 /*multiple_rounds=*/true,
                                 &result.stats.orphans);
  }
  result.stats.seconds_postprocess = timer.ElapsedSeconds();
  return result;
}

}  // namespace oca
