// Seed expansion, one slot at a time or a whole batch at once.
// Deterministic given the same seed sets and options: each slot's climb
// is a pure function of (graph, seed set, options), and batch results
// are collected by slot index, so thread scheduling cannot change the
// outcome. RunOca calls ExpandSeed slot by slot when it runs serially,
// so a halt leaves the rest of the batch unclimbed; with a pool it calls
// ExpandSeedBatch, whose look-ahead over the whole batch feeds the
// workers.

#ifndef OCA_CORE_PARALLEL_DRIVER_H_
#define OCA_CORE_PARALLEL_DRIVER_H_

#include <vector>

#include "core/local_search.h"
#include "util/thread_pool.h"

namespace oca {

/// Expands one seed set with GreedyLocalSearch. A failed expansion (an
/// invalid seed set) yields an empty community, which the driver skips.
LocalSearchResult ExpandSeed(const Graph& graph, const Community& seed_set,
                             const LocalSearchOptions& options);

/// Expands every seed set in `seed_sets` with ExpandSeed, using `pool`
/// when non-null (otherwise serial). Returns one result per input slot,
/// in order.
std::vector<LocalSearchResult> ExpandSeedBatch(
    const Graph& graph, const std::vector<Community>& seed_sets,
    const LocalSearchOptions& options, ThreadPool* pool);

}  // namespace oca

#endif  // OCA_CORE_PARALLEL_DRIVER_H_
