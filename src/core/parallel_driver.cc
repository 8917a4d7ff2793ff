#include "core/parallel_driver.h"

namespace oca {

LocalSearchResult ExpandSeed(const Graph& graph, const Community& seed_set,
                             const LocalSearchOptions& options) {
  auto r = GreedyLocalSearch(graph, seed_set, options);
  if (!r.ok()) return {};
  return std::move(r).value();
}

std::vector<LocalSearchResult> ExpandSeedBatch(
    const Graph& graph, const std::vector<Community>& seed_sets,
    const LocalSearchOptions& options, ThreadPool* pool) {
  std::vector<LocalSearchResult> results(seed_sets.size());
  auto run_one = [&](size_t i) {
    results[i] = ExpandSeed(graph, seed_sets[i], options);
  };
  if (pool != nullptr && seed_sets.size() > 1) {
    pool->ParallelFor(seed_sets.size(), run_one);
  } else {
    for (size_t i = 0; i < seed_sets.size(); ++i) run_one(i);
  }
  return results;
}

}  // namespace oca
