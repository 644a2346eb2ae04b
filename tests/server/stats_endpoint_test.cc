// GET /stats over the wire: per-dataset counter documents, the
// lifetime-vs-interval qps split, and the p95<=max invariant as observed
// by a wire client.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "api/protocol.h"
#include "api/session.h"
#include "server/client.h"
#include "server/stats.h"
#include "server/tcp_server.h"
#include "testing/car_fixture.h"
#include "util/json.h"

namespace kgsearch {
namespace {

using testing_fixture::CarRequest;
using testing_fixture::RegisterCars;

JsonValue MustParse(const std::string& document) {
  Result<JsonValue> parsed = JsonValue::Parse(document);
  EXPECT_TRUE(parsed.ok()) << document;
  return std::move(parsed).ValueOrDie();
}

TEST(StatsEndpointTest, ReportsPerDatasetCounters) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  ASSERT_TRUE(RegisterCars(&session, "cars2").ok());
  TcpServer server(&session);
  ASSERT_TRUE(server.Start().ok());
  Result<NdjsonClient> client =
      NdjsonClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Two queries against "cars" over the wire, none against "cars2".
  const std::string request =
      EncodeQueryRequestJson(CarRequest("?Car product GER"));
  ASSERT_TRUE(client.ValueOrDie().Call(request).ok());
  ASSERT_TRUE(client.ValueOrDie().Call(request).ok());

  Result<std::string> answer = client.ValueOrDie().Call("GET /stats");
  ASSERT_TRUE(answer.ok());
  const JsonValue doc = MustParse(answer.ValueOrDie());
  ASSERT_NE(doc.Find("datasets"), nullptr);
  const JsonValue* cars = doc.Find("datasets")->Find("cars");
  const JsonValue* cars2 = doc.Find("datasets")->Find("cars2");
  ASSERT_NE(cars, nullptr);
  ASSERT_NE(cars2, nullptr);
  EXPECT_EQ(cars->Find("queries_total")->uint_value(), 2u);
  EXPECT_EQ(cars->Find("sgq_queries")->uint_value(), 2u);
  EXPECT_EQ(cars2->Find("queries_total")->uint_value(), 0u);
  // Latency percentiles respect the clamp all the way to the wire.
  EXPECT_LE(cars->Find("latency_p95_ms")->number_value(),
            cars->Find("latency_max_ms")->number_value());
  EXPECT_GE(cars->Find("uptime_seconds")->number_value(), 0.0);
}

TEST(StatsEndpointTest, SingleDatasetTargetAndNotFound) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  TcpServer server(&session);
  ASSERT_TRUE(server.Start().ok());
  Result<NdjsonClient> client =
      NdjsonClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  Result<std::string> answer = client.ValueOrDie().Call("GET /stats/cars");
  ASSERT_TRUE(answer.ok());
  const JsonValue doc = MustParse(answer.ValueOrDie());
  ASSERT_NE(doc.Find("datasets"), nullptr);
  EXPECT_NE(doc.Find("datasets")->Find("cars"), nullptr);

  Result<std::string> missing =
      client.ValueOrDie().Call("GET /stats/missing");
  ASSERT_TRUE(missing.ok());
  const JsonValue error_doc = MustParse(missing.ValueOrDie());
  ASSERT_NE(error_doc.Find("error"), nullptr);
  EXPECT_EQ(error_doc.Find("error")->Find("code")->string_value(),
            "NotFound");
}

TEST(StatsEndpointTest, IntervalQpsTracksTheWindowNotTheLifetime) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  TcpServer server(&session);
  ASSERT_TRUE(server.Start().ok());
  Result<NdjsonClient> client =
      NdjsonClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  const std::string request =
      EncodeQueryRequestJson(CarRequest("?Car product GER"));
  ASSERT_TRUE(client.ValueOrDie().Call(request).ok());

  // First read primes the tracker; with no predecessor it degenerates to
  // the lifetime average.
  Result<std::string> first = client.ValueOrDie().Call("GET /stats/cars");
  ASSERT_TRUE(first.ok());
  const JsonValue doc1 = MustParse(first.ValueOrDie());
  const JsonValue* cars1 = doc1.Find("datasets")->Find("cars");
  ASSERT_NE(cars1, nullptr);
  EXPECT_NEAR(cars1->Find("qps_interval")->number_value(),
              cars1->Find("qps_lifetime")->number_value(), 1e-9);

  // An idle window: lifetime qps stays positive (it still remembers the
  // old traffic — the documented staleness), while the interval rate
  // correctly reports 0.
  Result<std::string> second = client.ValueOrDie().Call("GET /stats/cars");
  ASSERT_TRUE(second.ok());
  const JsonValue doc2 = MustParse(second.ValueOrDie());
  const JsonValue* cars2 = doc2.Find("datasets")->Find("cars");
  ASSERT_NE(cars2, nullptr);
  EXPECT_GT(cars2->Find("qps_lifetime")->number_value(), 0.0);
  EXPECT_EQ(cars2->Find("qps_interval")->number_value(), 0.0);

  // A busy window: the interval rate comes back up.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.ValueOrDie().Call(request).ok());
  }
  Result<std::string> third = client.ValueOrDie().Call("GET /stats/cars");
  ASSERT_TRUE(third.ok());
  const JsonValue doc3 = MustParse(third.ValueOrDie());
  const JsonValue* cars3 = doc3.Find("datasets")->Find("cars");
  ASSERT_NE(cars3, nullptr);
  EXPECT_GT(cars3->Find("qps_interval")->number_value(), 0.0);
}

TEST(StatsEndpointTest, EncodeServiceStatsCoversEveryCounter) {
  // The JSON document carries every snapshot field under a stable name —
  // a unit-level check so wire dashboards can rely on the schema.
  ServiceStatsSnapshot stats;
  stats.queries_total = 10;
  stats.queries_failed = 2;
  stats.sgq_queries = 7;
  stats.tbq_queries = 3;
  stats.queries_rejected = 4;
  stats.queries_cancelled = 1;
  stats.queries_deadline_exceeded = 1;
  stats.in_flight = 2;
  stats.queue_depth = 3;
  stats.admitted_outstanding = 5;
  stats.uptime_seconds = 2.0;
  stats.qps = 5.0;
  stats.latency_p50_ms = 1.25;
  stats.latency_p95_ms = 4.5;
  stats.latency_max_ms = 6.0;
  const JsonValue doc = EncodeServiceStats(stats, /*interval_qps=*/12.5);
  for (const char* key :
       {"queries_total", "queries_failed", "sgq_queries", "tbq_queries",
        "queries_rejected", "queries_cancelled",
        "queries_deadline_exceeded", "decomposition_cache_hits",
        "decomposition_cache_misses", "matcher_cache_hits",
        "matcher_cache_misses", "in_flight", "queue_depth",
        "executor_queue_depth", "admitted_outstanding", "uptime_seconds",
        "qps_lifetime", "qps_interval", "latency_p50_ms", "latency_p95_ms",
        "latency_max_ms"}) {
    EXPECT_NE(doc.Find(key), nullptr) << key;
  }
  EXPECT_EQ(doc.Find("queries_total")->uint_value(), 10u);
  EXPECT_EQ(doc.Find("qps_lifetime")->number_value(), 5.0);
  EXPECT_EQ(doc.Find("qps_interval")->number_value(), 12.5);
}

TEST(StatsEndpointTest, RateTrackerKeepsDatasetsIndependent) {
  StatsRateTracker tracker;
  ServiceStatsSnapshot a1;
  a1.queries_total = 10;
  a1.uptime_seconds = 1.0;
  a1.qps = 10.0;
  // First reads degenerate to the lifetime average, per dataset.
  EXPECT_DOUBLE_EQ(tracker.Update("a", a1), 10.0);
  ServiceStatsSnapshot b1;
  b1.queries_total = 6;
  b1.uptime_seconds = 2.0;
  b1.qps = 3.0;
  EXPECT_DOUBLE_EQ(tracker.Update("b", b1), 3.0);
  // Subsequent reads diff against each dataset's own predecessor.
  ServiceStatsSnapshot a2 = a1;
  a2.queries_total = 30;
  a2.uptime_seconds = 2.0;
  EXPECT_DOUBLE_EQ(tracker.Update("a", a2), 20.0);
  ServiceStatsSnapshot b2 = b1;
  b2.uptime_seconds = 4.0;
  EXPECT_DOUBLE_EQ(tracker.Update("b", b2), 0.0);
}

// Regression companion to the annotation migration: StatsRateTracker's map
// is GUARDED_BY its mutex and every /stats connection thread calls Update
// concurrently. Hammer it from several threads over shared and private
// dataset keys; under TSan (the server label in CI) any relapse to
// unlocked map access is a hard failure, and the per-thread private key
// checks prove updates are not lost or cross-contaminated.
TEST(StatsEndpointTest, RateTrackerConcurrentUpdatesAreSafe) {
  StatsRateTracker tracker;
  constexpr int kThreads = 4;
  constexpr int kIterations = 500;
  std::vector<std::thread> threads;
  std::vector<double> final_private_rate(kThreads, -1.0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracker, &final_private_rate, t] {
      const std::string private_key = "private-" + std::to_string(t);
      double last = -1.0;
      for (int i = 1; i <= kIterations; ++i) {
        ServiceStatsSnapshot snap;
        snap.queries_total = static_cast<uint64_t>(i);
        snap.uptime_seconds = static_cast<double>(i);
        snap.qps = 1.0;
        // Contended key: correctness here is just "no torn state"; the
        // interleaving makes the rate unpredictable but it must be finite.
        const double shared_rate = tracker.Update("shared", snap);
        EXPECT_TRUE(std::isfinite(shared_rate));
        // Private key: strictly sequential from this thread's viewpoint,
        // so every diff is exactly 1 query / 1 second.
        last = tracker.Update(private_key, snap);
        EXPECT_TRUE(std::isfinite(last));
      }
      final_private_rate[t] = last;
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(final_private_rate[t], 1.0) << "thread " << t;
  }
}

}  // namespace
}  // namespace kgsearch
