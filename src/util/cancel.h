// Cooperative cancellation and per-request deadlines for the serving stack.
//
// A CancelToken is a one-way latch the request owner flips to revoke work;
// a deadline is an absolute point on the engine's injected Clock. Engines
// poll both between node expansions (never inside one), so a cancelled or
// expired query stops at a well-defined point and surfaces a precise
// Status (kCancelled / kDeadlineExceeded) instead of running to
// completion. Polling is wait-free; neither primitive ever blocks the
// worker being interrupted.
//
// Deliberately lock-free: there is nothing here for the thread-safety
// analysis (util/thread_annotations.h) to guard — the latch is a single
// release/acquire atomic and deadlines are immutable int64 values. Keep it
// that way; a poll on the engine hot path must never contend on a Mutex.
#ifndef KGSEARCH_UTIL_CANCEL_H_
#define KGSEARCH_UTIL_CANCEL_H_

#include <atomic>
#include <cstdint>
#include <limits>

#include "util/clock.h"
#include "util/status.h"

namespace kgsearch {

/// One-way cancellation latch, shared between a request's owner (who calls
/// Cancel) and the workers executing it (who poll cancelled()). Cancel may
/// be called from any thread, any number of times; the token cannot be
/// reset, so one token serves exactly one logical request (or one batch
/// that should be revoked as a unit).
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Converts a caller-relative time budget in milliseconds into an absolute
/// deadline on `clock` (the representation QueryOptions carries, so queue
/// wait counts against the budget). 0 means "no deadline" and stays 0;
/// negative budgets are the caller's validation problem and also map to 0.
/// Budgets too large to represent saturate to the far future instead of
/// overflowing (wire clients may send any int64).
[[nodiscard]] inline int64_t DeadlineFromNowMs(int64_t deadline_ms,
                                               const Clock* clock) {
  if (deadline_ms <= 0) return 0;
  const int64_t max = std::numeric_limits<int64_t>::max();
  if (deadline_ms > max / 1000) return max;
  const int64_t delta = deadline_ms * 1000;
  const int64_t now = clock->NowMicros();
  if (now > max - delta) return max;
  return now + delta;
}

/// The one interruption policy every execution layer shares: cancellation
/// is checked before the deadline (a revoked request reports kCancelled
/// even when it also expired), and a deadline of 0 means none. OK when the
/// work may keep running.
// (Status is class-level [[nodiscard]], so an ignored interrupt check is
// a compile error.)
inline Status CheckInterrupt(const CancelToken* cancel,
                             int64_t deadline_micros, const Clock* clock) {
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled("request cancelled by caller");
  }
  if (deadline_micros > 0 && clock->NowMicros() >= deadline_micros) {
    return Status::DeadlineExceeded("request deadline expired");
  }
  return Status::OK();
}

}  // namespace kgsearch

#endif  // KGSEARCH_UTIL_CANCEL_H_
