// Process-wide thread pool shared by many in-flight queries (the serving
// model), plus the fork-join helpers used to run one A* semantic search per
// sub-query graph concurrently (Section V remark: "multithreaded manner").
//
// Two execution regimes coexist:
//  - RunParallel spins up a private pool for one fork-join batch (the
//    original single-query path; still used when no executor is injected).
//  - RunOnPool runs a batch on a long-lived shared pool with
//    caller-participation: the submitting thread claims and executes tasks
//    from its own batch alongside any pool workers that pick up helper
//    jobs. Joining a batch therefore never blocks pool progress — even a
//    pool worker executing a query can fork sub-query batches and join
//    them without risk of deadlock, because in the worst case it simply
//    runs its whole batch itself.
//
// Whole queries reach the pool through one path, KgSession::Submit
// (api/session.h), which enqueues with TrySubmit and drains its own tasks
// with a WaitGroup before teardown.
#ifndef KGSEARCH_UTIL_THREAD_POOL_H_
#define KGSEARCH_UTIL_THREAD_POOL_H_

#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kgsearch {

/// Counts outstanding work items; Wait() blocks until the count reaches
/// zero. Done() establishes a happens-before edge with the matching Wait().
class WaitGroup {
 public:
  /// Registers `n` more outstanding items.
  void Add(size_t n) EXCLUDES(mutex_);
  /// Marks one item complete.
  void Done() EXCLUDES(mutex_);
  /// Blocks until every added item is done.
  void Wait() EXCLUDES(mutex_);

 private:
  Mutex mutex_;
  CondVar cv_;
  size_t count_ GUARDED_BY(mutex_) = 0;
};

/// Simple FIFO thread pool. Tasks may not block on other pool tasks;
/// fork-join inside a task must go through RunOnPool, whose caller
/// participation keeps joins deadlock-free.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the returned future resolves when it finishes.
  /// Fails a KG_CHECK when the pool is shutting down.
  std::future<void> Submit(std::function<void()> task) EXCLUDES(mutex_);

  /// Enqueues a task if the pool is accepting work; returns false (and
  /// drops the task) when the pool is shutting down. Used by batch helpers
  /// that can tolerate rejection because the caller runs the work itself.
  [[nodiscard]] bool TrySubmit(std::function<void()> task) EXCLUDES(mutex_);

  /// Immutable after construction, so unguarded reads are safe.
  size_t num_threads() const { return workers_.size(); }

  /// Tasks enqueued but not yet started (a load signal, racy by nature).
  size_t queue_depth() const EXCLUDES(mutex_);

 private:
  void WorkerLoop() EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  mutable Mutex mutex_;
  CondVar cv_;
  std::queue<std::packaged_task<void()>> tasks_ GUARDED_BY(mutex_);
  bool shutting_down_ GUARDED_BY(mutex_) = false;
};

/// Pool-sizing policy shared by every owner of a serving pool: `requested`
/// when > 0, otherwise std::thread::hardware_concurrency() with a floor of
/// 2 so async work overlaps even on tiny machines.
size_t DefaultPoolThreads(size_t requested);

/// Runs `tasks` to completion, using `num_threads` workers (or inline when
/// num_threads <= 1). Convenience for fork-join parallelism with a private
/// pool per call.
void RunParallel(std::vector<std::function<void()>> tasks, size_t num_threads);

/// Runs `tasks` to completion on a shared pool, with the calling thread
/// claiming and executing tasks alongside pool workers (caller
/// participation / helping). Safe to call from inside a pool task: the
/// caller drains its own batch even when every worker is busy, so the join
/// cannot deadlock. Runs inline when `pool` is null. If tasks throw, every
/// task still completes or is claimed, and the first exception is rethrown
/// to the caller after the join.
void RunOnPool(ThreadPool* pool, std::vector<std::function<void()>> tasks);

}  // namespace kgsearch

#endif  // KGSEARCH_UTIL_THREAD_POOL_H_
