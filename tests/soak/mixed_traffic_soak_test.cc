// Mixed-traffic soak harness (ctest label: soak — excluded from the
// default tier). Loads a scale-generated kgpack snapshot into a KgSession
// with admission limits on, then hammers it from concurrent client threads
// with the full traffic mix the serving stack supports:
//
//   sync    — Query(), some with millisecond deadlines that expire mid-run
//   batch   — QueryBatch() bursts
//   async   — Submit() futures, half of them cooperatively cancelled
//   priority— occasional kHigh requests that bypass admission
//
// Every client records the one outcome its request resolved to; at exit
// the per-service counters must reconcile with the client-side tallies
// EXACTLY — the zero-drift admission accounting identity:
//
//   issued == queries_total + queries_rejected
//   queries_cancelled / queries_deadline_exceeded == client tallies
//   admitted_outstanding == in_flight == queue_depth == 0
//
// Scales: the smoke test (seconds, 10k nodes) runs whenever the soak label
// is invoked; the 100k soak is gated behind KGSEARCH_SOAK=1 (nightly CI
// runs it under TSan) and the 1M-node path behind KGSEARCH_SOAK_1M=1.
// KGSEARCH_SOAK_SECONDS overrides each duration. Each run prints the
// seconds spent generating the kgpack file and loading it (the cold
// start) beside the traffic tallies and the p50/p95 latency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "gen/insight_workload.h"
#include "gen/scale_kg.h"
#include "util/cancel.h"
#include "util/clock.h"

namespace kgsearch {
namespace {

double SoakSeconds(double fallback) {
  const char* env = std::getenv("KGSEARCH_SOAK_SECONDS");
  if (env == nullptr || *env == '\0') return fallback;
  const double parsed = std::atof(env);
  return parsed > 0 ? parsed : fallback;
}

bool EnvFlag(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && *env != '\0' && std::string_view(env) != "0";
}

/// Client-side outcome tallies; one increment per issued request.
struct SoakTally {
  std::atomic<uint64_t> issued{0};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> rejected{0};           // kResourceExhausted
  std::atomic<uint64_t> cancelled{0};          // kCancelled
  std::atomic<uint64_t> deadline_exceeded{0};  // kDeadlineExceeded
  std::atomic<uint64_t> other_failed{0};       // anything else non-OK

  void Record(const Status& status) {
    if (status.ok()) {
      ++ok;
    } else if (status.code() == StatusCode::kResourceExhausted) {
      ++rejected;
    } else if (status.code() == StatusCode::kCancelled) {
      ++cancelled;
    } else if (status.code() == StatusCode::kDeadlineExceeded) {
      ++deadline_exceeded;
    } else {
      ++other_failed;
    }
  }
};

QueryRequest MakeRequest(const std::string& dataset,
                         const InsightQuery& insight) {
  QueryRequest request;
  request.dataset = dataset;
  request.query_graph = insight.query;
  request.options.k = 8;
  return request;
}

void RunSoak(uint64_t num_nodes, double seconds) {
  const ScaleKgSpec spec = ScaleSpecFor(num_nodes);
  const std::string path = testing::TempDir() + "/soak_" +
                           std::to_string(num_nodes) + ".kgpack";
  StopWatch watch;
  auto report = GenerateScaleKgToFile(spec, path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const double gen_seconds = watch.ElapsedMillis() / 1000.0;

  KgSessionOptions options;
  options.num_threads = 4;
  options.max_in_flight = 6;
  options.max_queued = 16;
  KgSession session(options);
  DatasetLoadOptions load;
  load.graph_path = path;
  watch.Restart();
  ASSERT_TRUE(session.LoadDataset("scale", load).ok());
  const double load_seconds = watch.ElapsedMillis() / 1000.0;
  std::remove(path.c_str());

  const InsightProfile profile = MakeInsightProfile(spec);
  InsightMixOptions mix_options;
  mix_options.num_queries = 48;
  const std::vector<InsightQuery> mix =
      BuildInsightMix(profile, mix_options);

  SoakTally tally;
  std::atomic<bool> stop{false};

  // Sync workers: steady query pressure; every 8th request carries a 1ms
  // deadline (expires in queue or mid-engine), every 16th is high priority.
  auto sync_worker = [&](uint64_t worker) {
    uint64_t i = worker;
    while (!stop.load(std::memory_order_relaxed)) {
      QueryRequest request = MakeRequest("scale", mix[i % mix.size()]);
      if (i % 8 == 3) request.deadline_ms = 1;
      if (i % 16 == 5) request.priority = RequestPriority::kHigh;
      ++tally.issued;
      tally.Record(session.Query(request).status());
      ++i;
    }
  };

  // Batch worker: 6-request bursts through the batch entry point.
  auto batch_worker = [&] {
    uint64_t i = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<QueryRequest> batch;
      for (int b = 0; b < 6; ++b) {
        batch.push_back(MakeRequest("scale", mix[(i + b) % mix.size()]));
      }
      i += batch.size();
      tally.issued += batch.size();
      for (const auto& result : session.QueryBatch(batch)) {
        tally.Record(result.status());
      }
    }
  };

  // Async worker: Submit() futures, cancelling every second token shortly
  // after submission (the request may complete first — either outcome is
  // one completion, tallied by its status).
  auto async_worker = [&] {
    uint64_t i = 2;
    while (!stop.load(std::memory_order_relaxed)) {
      CancelToken token;
      QueryRequest request = MakeRequest("scale", mix[i % mix.size()]);
      ++tally.issued;
      auto future = session.Submit(std::move(request), &token);
      if (i % 2 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        token.Cancel();
      }
      tally.Record(future.get().status());
      ++i;
    }
  };

  std::vector<std::thread> clients;
  clients.emplace_back(sync_worker, 0);
  clients.emplace_back(sync_worker, 1);
  clients.emplace_back(batch_worker);
  clients.emplace_back(async_worker);

  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();

  auto stats_or = session.Stats("scale");
  ASSERT_TRUE(stats_or.ok());
  const ServiceStatsSnapshot stats = stats_or.ValueOrDie();

  // The session is quiescent: nothing admitted is still outstanding.
  EXPECT_EQ(stats.admitted_outstanding, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);

  // Zero-drift accounting: every issued request completed or was rejected,
  // and the service's overload/cancel/deadline counters match what the
  // clients actually observed.
  EXPECT_EQ(tally.issued.load(),
            stats.queries_total + stats.queries_rejected);
  EXPECT_EQ(stats.queries_rejected, tally.rejected.load());
  EXPECT_EQ(stats.queries_cancelled, tally.cancelled.load());
  EXPECT_EQ(stats.queries_deadline_exceeded, tally.deadline_exceeded.load());
  EXPECT_EQ(stats.queries_failed, tally.cancelled.load() +
                                      tally.deadline_exceeded.load() +
                                      tally.other_failed.load());
  // Real work happened, and the mixed traffic actually exercised the
  // admission/deadline paths it exists to soak.
  EXPECT_GT(tally.ok.load(), 0u);
  EXPECT_GT(tally.issued.load(), 50u);
  EXPECT_GT(stats.queries_deadline_exceeded, 0u);

  std::printf(
      "soak %llu nodes, gen=%.3fs load=%.3fs traffic=%.1fs: issued=%llu "
      "ok=%llu rejected=%llu cancelled=%llu deadline=%llu other=%llu "
      "p50=%.2fms p95=%.2fms\n",
      (unsigned long long)num_nodes, gen_seconds, load_seconds, seconds,
      (unsigned long long)tally.issued.load(),
      (unsigned long long)tally.ok.load(),
      (unsigned long long)tally.rejected.load(),
      (unsigned long long)tally.cancelled.load(),
      (unsigned long long)tally.deadline_exceeded.load(),
      (unsigned long long)tally.other_failed.load(), stats.latency_p50_ms,
      stats.latency_p95_ms);
}

TEST(MixedTrafficSoakTest, SmokeAt10k) { RunSoak(10'000, SoakSeconds(2.0)); }

TEST(MixedTrafficSoakTest, SoakAt100k) {
  if (!EnvFlag("KGSEARCH_SOAK")) {
    GTEST_SKIP() << "set KGSEARCH_SOAK=1 (and optionally "
                    "KGSEARCH_SOAK_SECONDS) to run the 100k soak";
  }
  RunSoak(100'000, SoakSeconds(60.0));
}

TEST(MixedTrafficSoakTest, SoakAt1M) {
  if (!EnvFlag("KGSEARCH_SOAK_1M")) {
    GTEST_SKIP() << "set KGSEARCH_SOAK_1M=1 to run the million-node soak";
  }
  RunSoak(1'000'000, SoakSeconds(120.0));
}

}  // namespace
}  // namespace kgsearch
