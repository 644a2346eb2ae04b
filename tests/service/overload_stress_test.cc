// Overload and cancellation stress (ctest label: stress; runs under ASan
// and TSan in CI): flood a bounded-admission dataset well past its capacity
// through KgSession::Submit, the one asynchronous path, from many client
// threads and assert the trichotomy the serving contract promises — every
// request resolves to exactly one of
//   {answer bit-identical to serial execution,
//    kResourceExhausted  (admission rejection),
//    kDeadlineExceeded   (its own deadline fired)}
// with no hangs, no leaked admission slots, and consistent counters.
// Iteration counts are fixed and small so the suite stays inside the TSan
// job's time budget.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "testing/q117_session.h"
#include "util/cancel.h"

namespace kgsearch {
namespace {

using testing_fixture::AnswerFingerprint;
using testing_fixture::Fingerprint;
using testing_fixture::Q117Request;
using testing_fixture::RegisterCarDomain;

/// Serial (threads = 1) reference fingerprints for the 4 Q117 variants, on
/// the session's own copy of the dataset.
std::map<int, AnswerFingerprint> MakeReferences(const KgSession& session,
                                                size_t k) {
  SgqEngine serial = testing_fixture::SerialEngine(session);
  std::map<int, AnswerFingerprint> refs;
  for (int variant = 1; variant <= 4; ++variant) {
    EngineOptions options;
    options.k = k;
    options.threads = 1;
    auto r = serial.Query(MakeQ117Variant(variant), options);
    KG_CHECK(r.ok());
    refs[variant] = Fingerprint(r.ValueOrDie());
  }
  return refs;
}

/// A session over a fresh 150-car dataset named "cars".
std::unique_ptr<KgSession> MakeSession(const KgSessionOptions& options) {
  auto session = std::make_unique<KgSession>(options);
  KG_CHECK(RegisterCarDomain(session.get(), 150).ok());
  return session;
}

// Deterministic overload accounting: with the executor's only worker
// parked, capacity fills exactly and every request past it is rejected at
// submission — exact counts, no racing.
TEST(OverloadStressTest, BlockedPoolRejectsExactlyTheOverflow) {
  KgSessionOptions options;
  options.num_threads = 1;
  options.max_in_flight = 1;
  options.max_queued = 2;
  auto session = MakeSession(options);
  const auto refs = MakeReferences(*session, 10);

  std::promise<void> gate;
  std::promise<void> started;
  std::future<void> blocker =
      session->service("cars")->executor()->Submit([&gate, &started] {
        started.set_value();
        gate.get_future().wait();
      });
  started.get_future().wait();  // worker parked; queue observably empty

  std::vector<std::future<Result<QueryResponse>>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(session->Submit(Q117Request(4, 10)));
  }
  gate.set_value();
  blocker.wait();

  size_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    auto r = f.get();
    if (r.ok()) {
      ++ok;
      EXPECT_EQ(Fingerprint(r.ValueOrDie()), refs.at(4));
    } else {
      ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted)
          << r.status().ToString();
      ++rejected;
    }
  }
  EXPECT_EQ(ok, 3u);        // max_in_flight + max_queued
  EXPECT_EQ(rejected, 7u);  // everything past capacity, fail-fast
  const ServiceStatsSnapshot stats = session->Stats("cars").ValueOrDie();
  EXPECT_EQ(stats.queries_rejected, 7u);
  EXPECT_EQ(stats.queries_total, 3u);
  EXPECT_EQ(stats.admitted_outstanding, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// Live fire: 8 client threads keep ~4x max_in_flight requests in the air
// for several rounds, a third of them carrying real (sometimes tight)
// deadlines. Every future must resolve to exactly one trichotomy outcome.
TEST(OverloadStressTest, FloodAtFourTimesCapacityResolvesEveryRequest) {
  KgSessionOptions soptions;
  soptions.num_threads = 2;
  soptions.max_in_flight = 2;
  soptions.max_queued = 6;
  auto session = MakeSession(soptions);
  const auto refs = MakeReferences(*session, 10);

  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 5;
  constexpr size_t kPerRound = 4;  // 8*4 = 32 concurrent vs capacity 8

  std::atomic<size_t> ok_count{0}, rejected_count{0}, deadline_count{0};
  std::atomic<size_t> wrong_status{0}, mismatches{0}, spurious_deadline{0};

  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        struct Pending {
          std::future<Result<QueryResponse>> future;
          int variant;
          bool had_deadline;
        };
        std::vector<Pending> pending;
        for (size_t i = 0; i < kPerRound; ++i) {
          const int variant = static_cast<int>((t + round + i) % 4) + 1;
          QueryRequest request = Q117Request(variant, 10);
          // Every third request gets a real deadline: generous on even
          // rounds (should virtually always make it), 1ms on odd rounds
          // (may or may not fire — both outcomes are legal).
          const bool with_deadline = i % 3 == 0;
          if (with_deadline) {
            request.deadline_ms = round % 2 == 0 ? 60'000 : 1;
          }
          pending.push_back(
              {session->Submit(std::move(request)), variant, with_deadline});
        }
        for (Pending& p : pending) {
          auto r = p.future.get();
          if (r.ok()) {
            ok_count.fetch_add(1);
            if (Fingerprint(r.ValueOrDie()) != refs.at(p.variant)) {
              mismatches.fetch_add(1);
            }
          } else if (r.status().code() == StatusCode::kResourceExhausted) {
            rejected_count.fetch_add(1);
          } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
            deadline_count.fetch_add(1);
            if (!p.had_deadline) spurious_deadline.fetch_add(1);
          } else {
            wrong_status.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  const size_t total = kThreads * kRounds * kPerRound;
  EXPECT_EQ(ok_count + rejected_count + deadline_count, total)
      << "every request resolves to exactly one trichotomy outcome";
  EXPECT_EQ(wrong_status.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u) << "accepted answers must be serial-exact";
  EXPECT_EQ(spurious_deadline.load(), 0u)
      << "deadline errors only for requests that carried deadlines";
  // 32 concurrent against capacity 8 must actually shed load.
  EXPECT_GT(rejected_count.load(), 0u);

  const ServiceStatsSnapshot stats = session->Stats("cars").ValueOrDie();
  EXPECT_EQ(stats.queries_rejected, rejected_count.load());
  EXPECT_EQ(stats.queries_deadline_exceeded, deadline_count.load());
  EXPECT_EQ(stats.queries_total, ok_count + deadline_count);
  EXPECT_EQ(stats.admitted_outstanding, 0u) << "no leaked admission slots";
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// Cancellation storm: concurrent clients revoke half their requests while
// they are queued or running. Every future resolves to a serial-exact
// answer or kCancelled; the tokens outlive resolution, and no slot leaks.
TEST(OverloadStressTest, ConcurrentCancellationResolvesCleanly) {
  KgSessionOptions soptions;
  soptions.num_threads = 2;
  auto session = MakeSession(soptions);
  const auto refs = MakeReferences(*session, 40);

  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 4;
  std::atomic<size_t> ok_count{0}, cancelled_count{0}, wrong{0}, bad{0};

  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        const int variant = static_cast<int>((t + round) % 4) + 1;
        auto token = std::make_unique<CancelToken>();
        auto future = session->Submit(Q117Request(variant, 40), token.get());
        if ((t + round) % 2 == 0) token->Cancel();
        auto r = future.get();  // token alive until resolution
        if (r.ok()) {
          ok_count.fetch_add(1);
          if (Fingerprint(r.ValueOrDie()) != refs.at(variant)) {
            wrong.fetch_add(1);
          }
        } else if (r.status().code() == StatusCode::kCancelled) {
          cancelled_count.fetch_add(1);
        } else {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(ok_count + cancelled_count, kThreads * kRounds);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(bad.load(), 0u);
  const ServiceStatsSnapshot stats = session->Stats("cars").ValueOrDie();
  EXPECT_EQ(stats.queries_cancelled, cancelled_count.load());
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.admitted_outstanding, 0u);
}

}  // namespace
}  // namespace kgsearch
