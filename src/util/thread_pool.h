// Fixed-size thread pool with a simple work queue plus a deterministic
// ParallelFor helper used by the multi-seed OCA driver.

#ifndef OCA_UTIL_THREAD_POOL_H_
#define OCA_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace oca {

/// Fixed-size pool. Tasks are void() closures; `Wait` blocks until the
/// queue drains and all workers are idle. Destruction waits for pending
/// tasks. Not copyable or movable.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution. Safe to call from inside a running
  /// task (nested submission): the child is counted as in-flight before
  /// the parent finishes, so `Wait` cannot return while transitively
  /// spawned work is still pending. Tasks must never call `Wait`
  /// themselves — only blocking from off-pool threads is supported.
  void Submit(std::function<void()> task);

  /// Priority-aware Submit: among pending tasks, workers always pop the
  /// highest `priority` first; within one priority level order stays
  /// FIFO. The plain overload above enqueues at priority 0, so existing
  /// call sites are unaffected. Priorities only order the *pending*
  /// queue — they never preempt a running task. The recursive hierarchy
  /// submits with priority = node depth so workers drive one subtree to
  /// its leaves before fanning across siblings.
  void Submit(int priority, std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Index in [0, num_threads()) of the pool worker executing the
  /// calling thread, or -1 off-pool (e.g. on the thread that owns the
  /// pool). Lets tasks address per-worker state — e.g. one stateful
  /// solver engine per worker — without any locking: two tasks observing
  /// the same index are by construction serialized on the same worker.
  /// The index is pool-relative; a thread only ever belongs to one pool.
  static int CurrentWorkerIndex();

  /// Runs fn(i) for i in [0, count) across the pool, blocking until done.
  /// Work is chunked statically so assignment is deterministic; fn must be
  /// safe to call concurrently for distinct i.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop(size_t worker_index);

  std::vector<std::thread> workers_;
  /// Pending tasks bucketed by priority, highest first (std::greater);
  /// each bucket is FIFO. `num_queued_` mirrors the total size so the
  /// worker wait predicate stays O(1).
  std::map<int, std::deque<std::function<void()>>, std::greater<int>> queue_;
  size_t num_queued_ = 0;
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// Sensible default worker count: hardware concurrency, at least 1.
size_t DefaultThreadCount();

/// Worker count from an environment variable (e.g. OCA_THREADS, the CI
/// thread matrix's knob): the variable's value when it parses as a
/// positive integer, `fallback` when unset or malformed. One parser for
/// every OCA_THREADS consumer so the env contract cannot drift.
size_t ThreadCountFromEnv(const char* name, size_t fallback);

}  // namespace oca

#endif  // OCA_UTIL_THREAD_POOL_H_
