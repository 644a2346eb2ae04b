#include "util/mutex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace kgsearch {
namespace {

/// Spins until `mu` has `n` threads queued behind its holder.
void AwaitWaiters(const FifoMutex& mu, size_t n) {
  while (mu.waiters() < n) std::this_thread::yield();
}

TEST(FifoMutexTest, ExcludesUnderContention) {
  FifoMutex mu;
  int counter = 0;  // deliberately unsynchronized but for the lock
  std::atomic<int> inside{0};
  std::atomic<int> overlaps{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        FifoMutexLock lock(&mu);
        if (inside.fetch_add(1) != 0) overlaps.fetch_add(1);
        ++counter;
        inside.fetch_sub(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, 4 * 2000);
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(mu.waiters(), 0u);
}

TEST(FifoMutexTest, AdmitsWaitersInArrivalOrder) {
  // The test thread holds the lock while each waiter queues; a waiter is
  // started only once the previous one is counted, so the arrival order is
  // known. Each records itself under the lock when admitted. The holder
  // then unlocks and locks again at once — the loop that can starve a
  // plain Mutex's waiters — and must queue behind all of them.
  constexpr int kWaiters = 8;
  FifoMutex mu;
  std::vector<int> admitted;
  std::vector<std::thread> threads;
  mu.Lock();
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&mu, &admitted, i] {
      FifoMutexLock lock(&mu);
      admitted.push_back(i);
    });
    AwaitWaiters(mu, static_cast<size_t>(i) + 1);
  }
  mu.Unlock();
  {
    FifoMutexLock relock(&mu);
    admitted.push_back(kWaiters);
  }
  for (std::thread& t : threads) t.join();

  std::vector<int> expected;
  for (int i = 0; i <= kWaiters; ++i) expected.push_back(i);
  EXPECT_EQ(admitted, expected);
  EXPECT_EQ(mu.waiters(), 0u);
}

}  // namespace
}  // namespace kgsearch
