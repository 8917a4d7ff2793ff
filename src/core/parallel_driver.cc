#include "core/parallel_driver.h"

#include <algorithm>

namespace oca {

namespace {

/// Slots a pooled SeedExpander keeps in flight per pool thread: enough
/// that a worker finds its next climb queued while the reader digests
/// the last one.
constexpr size_t kLookAheadPerThread = 2;

}  // namespace

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

SeedExpander::SeedExpander(const Graph& graph,
                           const LocalSearchOptions& options, ThreadPool* pool)
    : graph_(graph), options_(options), pool_(pool) {}

SeedExpander::~SeedExpander() { WaitForInFlight(); }

void SeedExpander::Reset(std::vector<Community> seed_sets) {
  WaitForInFlight();
  seed_sets_ = std::move(seed_sets);
  if (pool_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  results_.assign(seed_sets_.size(), std::nullopt);
  submitted_ = 0;
  finished_ = 0;
}

LocalSearchResult SeedExpander::Take(size_t slot) {
  if (pool_ == nullptr) {
    ++climbs_;
    return ExpandSeed(graph_, seed_sets_[slot], options_);
  }
  const size_t end = std::min(
      seed_sets_.size(), slot + kLookAheadPerThread * pool_->num_threads());
  while (submitted_ < end) Submit(submitted_);
  std::unique_lock<std::mutex> lock(mu_);
  slot_done_.wait(lock, [&] { return results_[slot].has_value(); });
  return std::move(*results_[slot]);
}

void SeedExpander::Submit(size_t slot) {
  pool_->Submit([this, slot] {
    LocalSearchResult result = ExpandSeed(graph_, seed_sets_[slot], options_);
    std::lock_guard<std::mutex> lock(mu_);
    results_[slot] = std::move(result);
    ++finished_;
    slot_done_.notify_all();
  });
  ++climbs_;
  std::lock_guard<std::mutex> lock(mu_);
  ++submitted_;
}

void SeedExpander::WaitForInFlight() {
  if (pool_ == nullptr) return;
  std::unique_lock<std::mutex> lock(mu_);
  slot_done_.wait(lock, [this] { return finished_ == submitted_; });
}

}  // namespace oca
