// Annotated mutex wrappers: the one place in the codebase where the raw
// std::mutex / std::condition_variable primitives are allowed to appear
// (tools/check_invariants.py rejects them anywhere else in src/).
//
// Mutex / FifoMutex / their scoped locks / CondVar carry the Clang Thread
// Safety Analysis attributes from util/thread_annotations.h, so a Clang
// build proves, at compile time and over every path, that each GUARDED_BY
// field is only touched with its lock held and every REQUIRES contract is
// honored. Under other compilers they behave identically and the
// annotations vanish.
//
// ---------------------------------------------------------------------
// Cross-class lock ordering (acquire strictly left to right):
//
//     server   (TcpServer::conn_mutex_, StatsRateTracker::mutex_)
//   → writer   (KgSession::writers_: one FifoMutex per dataset name, held
//               by its ingests, compactions and replacing installs)
//   → registry (KgSession::mutex_, the dataset registry)
//   → overlay  (DeltaOverlay::mutex_: snapshot publication for one
//               dataset's live-mutation delta)
//   → service  (QueryService's caches: LruCache::mutex_)
//   → pool     (ThreadPool::mutex_, WaitGroup::mutex_)
//
// A thread holding a lock from a lower layer must never acquire one from
// a higher layer: connection threads may take the registry lock while
// serving a line, a dataset's writer takes the registry lock to resolve
// and swap the dataset, the registry lock may be held while an overlay
// snapshot is pinned (dataset resolution) or a service's cache lock is
// taken (registration), and anything may enqueue on the pool — but pool
// workers and cache code never reach back up into server, writer or
// registry locks. A writer lock is found under the registry lock but
// taken only after that lock is released. The overlay lock is effectively
// a leaf: Commit/Snapshot do pure data work and acquire nothing while
// holding it. No two locks of the SAME layer are ever held together (each
// dataset's writer lock and overlay are independent; each service's caches
// are independent; WaitGroup and ThreadPool locks nest only pool-internally,
// via Submit-side tracking that takes them one at a time). This ordering
// makes the whole stack deadlock-free by construction; document any new
// lock's layer here before adding it.
// ---------------------------------------------------------------------
#ifndef KGSEARCH_UTIL_MUTEX_H_
#define KGSEARCH_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "util/thread_annotations.h"

namespace kgsearch {

/// Annotated exclusive mutex. Prefer MutexLock for scoped acquisition;
/// Lock/Unlock exist for the rare split-scope pattern and for CondVar.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock on a Mutex, held for the enclosing scope.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable bound to Mutex. Wait atomically releases the mutex
/// and re-acquires it before returning, so REQUIRES(mu) holds on both
/// sides of the call; the analysis (correctly) treats the lock as held
/// across it. Spurious wakeups are possible — use the predicate overload
/// or an external while loop.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or spuriously woken).
  void Wait(Mutex* mu) REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait, then hand
    // ownership back so the MutexLock destructor stays the one unlocker.
    std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  /// Blocks until `pred()` is true, re-checking after every wakeup.
  template <typename Pred>
  void Wait(Mutex* mu, Pred pred) REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  /// Blocks until notified or `timeout` elapses; true when notified
  /// before the timeout (callers must still re-check their predicate).
  template <typename Rep, typename Period>
  bool WaitFor(Mutex* mu, std::chrono::duration<Rep, Period> timeout)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(native, timeout);
    native.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Exclusive lock that admits waiters in the order they arrived: a ticket
/// lock built from Mutex and CondVar. Mutex promises no order, so a thread
/// that re-locks in a loop can keep another waiting for as long as the
/// loop runs; here no thread that called Lock() later is admitted first.
/// Prefer FifoMutexLock for scoped acquisition.
class CAPABILITY("mutex") FifoMutex {
 public:
  FifoMutex() = default;
  FifoMutex(const FifoMutex&) = delete;
  FifoMutex& operator=(const FifoMutex&) = delete;

  void Lock() ACQUIRE() {
    MutexLock lock(&mu_);
    const uint64_t ticket = next_ticket_++;
    while (serving_ != ticket) cv_.Wait(&mu_);
  }

  void Unlock() RELEASE() {
    {
      MutexLock lock(&mu_);
      ++serving_;
    }
    cv_.NotifyAll();
  }

  /// Threads blocked in Lock() behind the holder (a load signal, racy by
  /// nature; tests read it to know a waiter has queued).
  size_t waiters() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return next_ticket_ == serving_
               ? 0
               : static_cast<size_t>(next_ticket_ - serving_ - 1);
  }

 private:
  mutable Mutex mu_;
  CondVar cv_;
  uint64_t next_ticket_ GUARDED_BY(mu_) = 0;  ///< handed to the next Lock()
  uint64_t serving_ GUARDED_BY(mu_) = 0;      ///< the ticket that holds it
};

/// RAII lock on a FifoMutex, held for the enclosing scope.
class SCOPED_CAPABILITY FifoMutexLock {
 public:
  explicit FifoMutexLock(FifoMutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~FifoMutexLock() RELEASE() { mu_->Unlock(); }

  FifoMutexLock(const FifoMutexLock&) = delete;
  FifoMutexLock& operator=(const FifoMutexLock&) = delete;

 private:
  FifoMutex* const mu_;
};

}  // namespace kgsearch

#endif  // KGSEARCH_UTIL_MUTEX_H_
