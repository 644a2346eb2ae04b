// Admission control, deadline, and cancellation semantics of QueryService,
// made deterministic by parking the shared executor's only worker on a
// latch: submissions then stay queued exactly until the test releases them,
// so every admit/reject decision is forced, not raced.
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "gen/car_domain.h"
#include "service/admission.h"
#include "service/query_service.h"
#include "util/cancel.h"

namespace kgsearch {
namespace {

TEST(AdmissionControllerTest, DisabledGateAdmitsEverything) {
  AdmissionController gate(0, 0);
  EXPECT_FALSE(gate.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(gate.TryAdmit(false, RequestPriority::kNormal));
  }
  EXPECT_EQ(gate.outstanding(), 100u);
  EXPECT_EQ(gate.rejected(), 0u);
}

TEST(AdmissionControllerTest, SyncLimitIsMaxInFlight) {
  AdmissionController gate(2, 3);
  EXPECT_TRUE(gate.TryAdmit(false, RequestPriority::kNormal));
  EXPECT_TRUE(gate.TryAdmit(false, RequestPriority::kNormal));
  EXPECT_FALSE(gate.TryAdmit(false, RequestPriority::kNormal));
  EXPECT_EQ(gate.rejected(), 1u);
  gate.Release();
  EXPECT_TRUE(gate.TryAdmit(false, RequestPriority::kNormal));
}

TEST(AdmissionControllerTest, AsyncLimitAddsQueueCapacity) {
  AdmissionController gate(1, 2);
  EXPECT_TRUE(gate.TryAdmit(true, RequestPriority::kNormal));
  EXPECT_TRUE(gate.TryAdmit(true, RequestPriority::kNormal));
  EXPECT_TRUE(gate.TryAdmit(true, RequestPriority::kNormal));
  EXPECT_FALSE(gate.TryAdmit(true, RequestPriority::kNormal));
  // Sync traffic sees the stricter limit while the queue is full.
  EXPECT_FALSE(gate.TryAdmit(false, RequestPriority::kNormal));
  EXPECT_EQ(gate.outstanding(), 3u);
  EXPECT_EQ(gate.rejected(), 2u);
}

TEST(AdmissionControllerTest, HighPriorityBypassesButIsCounted) {
  AdmissionController gate(1, 0);
  EXPECT_TRUE(gate.TryAdmit(false, RequestPriority::kNormal));
  EXPECT_TRUE(gate.TryAdmit(false, RequestPriority::kHigh));
  EXPECT_TRUE(gate.TryAdmit(true, RequestPriority::kHigh));
  EXPECT_EQ(gate.outstanding(), 3u);
  // Normal traffic now sees the capacity consumed by high-priority work.
  EXPECT_FALSE(gate.TryAdmit(false, RequestPriority::kNormal));
  EXPECT_EQ(gate.rejected(), 1u);
}

TEST(RequestPriorityTest, NamesRoundTrip) {
  EXPECT_STREQ(RequestPriorityName(RequestPriority::kNormal), "normal");
  EXPECT_STREQ(RequestPriorityName(RequestPriority::kHigh), "high");
  EXPECT_EQ(ParseRequestPriorityName("normal").ValueOrDie(),
            RequestPriority::kNormal);
  EXPECT_EQ(ParseRequestPriorityName("high").ValueOrDie(),
            RequestPriority::kHigh);
  EXPECT_FALSE(ParseRequestPriorityName("urgent").ok());
}

class ServiceAdmissionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto result = MakeCarDomainDataset(120, 117);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    dataset_ = std::move(result).ValueOrDie().release();
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static GeneratedDataset* dataset_;
};

GeneratedDataset* ServiceAdmissionTest::dataset_ = nullptr;

/// Parks the pool's single worker until Release() is called. The
/// constructor returns only after the worker has dequeued the parking
/// task, so the pool queue is observably empty at that point.
struct PoolBlocker {
  explicit PoolBlocker(ThreadPool* pool) {
    std::promise<void> started;
    std::future<void> running = started.get_future();
    done = pool->Submit([this, &started] {
      started.set_value();
      gate.get_future().wait();
    });
    running.wait();
  }
  void Release() {
    gate.set_value();
    done.wait();
  }
  std::promise<void> gate;
  std::future<void> done;
};

TEST_F(ServiceAdmissionTest, OverCapacitySubmitsFailFastAndRestResolve) {
  ThreadPool pool(1);
  QueryServiceOptions options;
  options.executor = &pool;
  options.max_in_flight = 1;
  options.max_queued = 2;
  QueryService service(dataset_->graph.get(), dataset_->space.get(),
                       &dataset_->library, options);

  // Serial reference for the accepted queries' answers.
  SgqEngine serial(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library);
  EngineOptions serial_options;
  serial_options.threads = 1;
  auto reference = serial.Query(MakeQ117Variant(4), serial_options);
  ASSERT_TRUE(reference.ok());

  PoolBlocker blocker(&pool);
  // Async capacity = max_in_flight + max_queued = 3; the worker is parked,
  // so the first three stay admitted-and-queued and the fourth must be
  // turned away immediately.
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.Submit(MakeQ117Variant(4), EngineOptions{}));
  }
  auto rejected = futures[3].get();  // ready future: fail-fast, no queueing
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // Sync traffic is gated at max_in_flight alone — and 3 > 1 outstanding.
  auto sync = service.Query(MakeQ117Variant(4), EngineOptions{});
  ASSERT_FALSE(sync.ok());
  EXPECT_EQ(sync.status().code(), StatusCode::kResourceExhausted);

  // High priority bypasses the gate even now (runs on the caller's thread
  // with caller-participating sub-query batches, so the parked pool does
  // not block it).
  auto urgent = service.Query(MakeQ117Variant(4), EngineOptions{},
                              RequestPriority::kHigh);
  ASSERT_TRUE(urgent.ok()) << urgent.status().ToString();

  ServiceStatsSnapshot during = service.Stats();
  EXPECT_EQ(during.queries_rejected, 2u);
  EXPECT_EQ(during.admitted_outstanding, 3u);
  EXPECT_EQ(during.queue_depth, 3u);

  blocker.Release();
  for (int i = 0; i < 3; ++i) {
    auto r = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.ValueOrDie().matches.size(),
              reference.ValueOrDie().matches.size());
    for (size_t m = 0; m < r.ValueOrDie().matches.size(); ++m) {
      EXPECT_EQ(r.ValueOrDie().matches[m].pivot_match,
                reference.ValueOrDie().matches[m].pivot_match);
      EXPECT_EQ(r.ValueOrDie().matches[m].score,
                reference.ValueOrDie().matches[m].score);
    }
  }

  ServiceStatsSnapshot after = service.Stats();
  EXPECT_EQ(after.admitted_outstanding, 0u);
  EXPECT_EQ(after.queue_depth, 0u);
  EXPECT_EQ(after.queries_rejected, 2u);
  // Rejected requests never execute: total counts only the 3 accepted
  // async + 1 high-priority sync.
  EXPECT_EQ(after.queries_total, 4u);
  EXPECT_EQ(after.queries_failed, 0u);
}

TEST_F(ServiceAdmissionTest, ReleasedCapacityAdmitsNewWork) {
  QueryServiceOptions options;
  options.num_threads = 2;
  options.max_in_flight = 1;
  QueryService service(dataset_->graph.get(), dataset_->space.get(),
                       &dataset_->library, options);
  // Sequential sync queries never overlap, so the limit of 1 must never
  // reject anything.
  for (int i = 0; i < 3; ++i) {
    auto r = service.Query(MakeQ117Variant(4), EngineOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(service.Stats().queries_rejected, 0u);
}

TEST_F(ServiceAdmissionTest, ExpiredDeadlineCountsAndFailsFast) {
  ManualClock clock(2'000'000);
  QueryService service(dataset_->graph.get(), dataset_->space.get(),
                       &dataset_->library, QueryServiceOptions{}, &clock);
  EngineOptions options;
  options.deadline_micros = 1'000'000;  // already past
  auto r = service.Query(MakeQ117Variant(4), options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);

  TimeBoundedOptions tbq;
  tbq.deadline_micros = 1'000'000;
  tbq.per_match_assembly_micros = 0.5;
  auto t = service.Query(MakeQ117Variant(4), tbq);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kDeadlineExceeded);

  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.queries_deadline_exceeded, 2u);
  EXPECT_EQ(stats.queries_failed, 2u);
  EXPECT_EQ(stats.queries_total, 2u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST_F(ServiceAdmissionTest, CancelledTokenCountsAndFailsFast) {
  QueryService service(dataset_->graph.get(), dataset_->space.get(),
                       &dataset_->library);
  CancelToken token;
  token.Cancel();
  EngineOptions options;
  options.cancel = &token;
  auto r = service.Query(MakeQ117Variant(4), options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.queries_cancelled, 1u);
  EXPECT_EQ(stats.queries_failed, 1u);
}

TEST_F(ServiceAdmissionTest, AsyncDeadlineCoversQueueWait) {
  // One parked worker + an absolute deadline already set: the task waits
  // in the queue past its deadline and must resolve kDeadlineExceeded
  // without executing the engine.
  ManualClock clock(1'000'000);
  ThreadPool pool(1);
  QueryServiceOptions options;
  options.executor = &pool;
  QueryService service(dataset_->graph.get(), dataset_->space.get(),
                       &dataset_->library, options, &clock);

  PoolBlocker blocker(&pool);
  EngineOptions engine_options;
  engine_options.deadline_micros = 1'500'000;
  auto future = service.Submit(MakeQ117Variant(4), engine_options);
  clock.AdvanceMicros(1'000'000);  // budget burns away while queued
  blocker.Release();
  auto r = future.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.Stats().queries_deadline_exceeded, 1u);
}

// Satellite: queue-depth semantics under a shared executor. Each service
// reports ITS OWN submitted-not-yet-started count; the pool-wide signal is
// executor_queue_depth, shared by design.
TEST_F(ServiceAdmissionTest, QueueDepthIsPerServiceOnSharedExecutor) {
  ThreadPool pool(1);
  QueryServiceOptions options;
  options.executor = &pool;
  QueryService service_a(dataset_->graph.get(), dataset_->space.get(),
                         &dataset_->library, options);
  QueryService service_b(dataset_->graph.get(), dataset_->space.get(),
                         &dataset_->library, options);

  PoolBlocker blocker(&pool);
  auto a1 = service_a.Submit(MakeQ117Variant(1), EngineOptions{});
  auto a2 = service_a.Submit(MakeQ117Variant(2), EngineOptions{});
  auto b1 = service_b.Submit(MakeQ117Variant(3), EngineOptions{});

  const ServiceStatsSnapshot stats_a = service_a.Stats();
  const ServiceStatsSnapshot stats_b = service_b.Stats();
  EXPECT_EQ(stats_a.queue_depth, 2u) << "A's own submissions only";
  EXPECT_EQ(stats_b.queue_depth, 1u) << "B's own submissions only";
  // The executor gauge is pool-wide: both services see all 3 waiting tasks.
  EXPECT_EQ(stats_a.executor_queue_depth, 3u);
  EXPECT_EQ(stats_b.executor_queue_depth, 3u);

  blocker.Release();
  EXPECT_TRUE(a1.get().ok());
  EXPECT_TRUE(a2.get().ok());
  EXPECT_TRUE(b1.get().ok());
  EXPECT_EQ(service_a.Stats().queue_depth, 0u);
  EXPECT_EQ(service_b.Stats().queue_depth, 0u);
}

}  // namespace
}  // namespace kgsearch
