// Seed expansion: one climb per seed slot. Deterministic given the same
// seed sets and options: each slot's climb is a pure function of
// (graph, seed set, options), and results are read by slot index, so
// thread scheduling cannot change the outcome.
//
// SeedExpander is RunOca's one slot path. Serial, it climbs a slot when
// the seed loop takes it, so a halt leaves the rest of the batch
// unclimbed. Pooled, it keeps a bounded look-ahead of slots on the pool,
// 2 per pool thread, so a halt leaves fewer than that many climbs past
// it. ExpandSeedBatch climbs a whole batch at once; only bench/e2e's
// seed-loop replay calls it.

#ifndef OCA_CORE_PARALLEL_DRIVER_H_
#define OCA_CORE_PARALLEL_DRIVER_H_

#include <condition_variable>
#include <mutex>
#include <optional>
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

/// The climbs of one seed batch at a time, taken in slot order. Without
/// a pool, Take(i) climbs slot i inline. With a pool of T threads, slot
/// j goes to the pool only once the reader is within 2T slots of it
/// (j < i + 2T when slot i is taken), and Take(i) waits for slot i's
/// result. The expander owns the batch's seed sets and a copy of the
/// options, and Reset() and the destructor wait for every climb in
/// flight, so no climb outlives what it reads, whichever way the reader
/// leaves its loop. Not thread-safe: one reader thread.
class SeedExpander {
 public:
  /// `pool` may be null (serial); it must outlive the expander.
  SeedExpander(const Graph& graph, const LocalSearchOptions& options,
               ThreadPool* pool);
  ~SeedExpander();

  SeedExpander(const SeedExpander&) = delete;
  SeedExpander& operator=(const SeedExpander&) = delete;

  /// Starts a new batch once the previous batch's climbs have finished.
  void Reset(std::vector<Community> seed_sets);

  /// Slots in the current batch.
  size_t size() const { return seed_sets_.size(); }

  /// The climb of slot `slot` of the current batch. Each slot is taken
  /// at most once, in ascending order.
  LocalSearchResult Take(size_t slot);

  /// Climbs started over every batch so far, those still in flight
  /// included: the slots taken plus at most 2T - 1 more.
  size_t climbs() const { return climbs_; }

 private:
  void Submit(size_t slot);
  void WaitForInFlight();

  const Graph& graph_;
  const LocalSearchOptions options_;
  ThreadPool* const pool_;
  std::vector<Community> seed_sets_;
  size_t climbs_ = 0;

  std::mutex mu_;
  std::condition_variable slot_done_;
  // Guarded by mu_: each slot's climb once it finished, and how many of
  // the batch's slots went to the pool and how many of those finished.
  // Only the reader writes submitted_, so it reads it without the lock.
  std::vector<std::optional<LocalSearchResult>> results_;
  size_t submitted_ = 0;
  size_t finished_ = 0;
};

}  // namespace oca

#endif  // OCA_CORE_PARALLEL_DRIVER_H_
