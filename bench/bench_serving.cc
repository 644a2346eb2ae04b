// Open-loop load benchmark for the TCP serving stack (src/server).
//
// A real TcpServer serves a synthetic DBpedia-like dataset through an
// admission-controlled KgSession. 16 TCP connections offer load OPEN-LOOP:
// each connection's requests arrive on a fixed Poisson schedule (the
// superposition across connections is Poisson at the offered rate), and a
// request's latency is measured from its SCHEDULED arrival — not from the
// send — so queueing delay the server induces cannot hide by slowing the
// clients down, the defect that makes closed-loop numbers lie under
// overload (bench_admission is the closed-loop counterpart).
//
// Four offered loads (0.5x, 1x, 2x, 4x of the calibrated service
// capacity) each run for a fixed window, recording the
// accepted/rejected/deadline-exceeded split and client-observed p50/p95/p99
// alongside the server's own /stats interval rate.
//
// Correctness gate (the BENCH_serving record is only written when it
// holds): every accepted wire answer is bit-identical to the in-process
// KgSession::Query answer for the same request, every non-OK outcome is
// exactly ResourceExhausted or DeadlineExceeded, and every scheduled
// request resolved (accepted + rejected + deadline_exceeded == sent).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/protocol.h"
#include "api/session.h"
#include "bench_util.h"
#include "eval/harness.h"
#include "gen/synthetic_kg.h"
#include "server/client.h"
#include "server/tcp_server.h"
#include "util/json.h"
#include "util/rng.h"

namespace kgsearch {
namespace {

constexpr size_t kConnections = 16;
constexpr size_t kPoolThreads = 2;
constexpr size_t kMaxInFlight = 2;
constexpr size_t kMaxQueued = 2;
constexpr int64_t kDeadlineMs = 250;
constexpr double kWindowSeconds = 3.0;

struct LoadPointResult {
  double offered_qps = 0.0;
  size_t sent = 0;
  size_t accepted = 0;
  size_t rejected = 0;
  size_t deadline_exceeded = 0;
  size_t bad = 0;  ///< wrong status, wrong answer, or transport failure
  double wall_seconds = 0.0;
  double achieved_qps = 0.0;        ///< accepted completions per second
  double server_qps_interval = 0.0; ///< the /stats interval rate
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// One pre-scheduled request on one connection.
struct ScheduledRequest {
  int64_t arrival_micros = 0;  ///< offset from the window start
  size_t workload_index = 0;
};

/// "qps_interval" for the dataset from a GET /stats/<name> answer.
double ParseIntervalQps(const std::string& document,
                        const std::string& dataset) {
  Result<JsonValue> parsed = JsonValue::Parse(document);
  if (!parsed.ok()) return -1.0;
  const JsonValue* datasets = parsed.ValueOrDie().Find("datasets");
  if (datasets == nullptr) return -1.0;
  const JsonValue* stats = datasets->Find(dataset);
  if (stats == nullptr) return -1.0;
  const JsonValue* qps = stats->Find("qps_interval");
  return qps == nullptr ? -1.0 : qps->number_value();
}

LoadPointResult RunLoadPoint(uint16_t port,
                             const std::vector<std::string>& request_docs,
                             const std::vector<QueryResponse>& references,
                             double offered_qps, uint64_t seed,
                             double window_seconds = kWindowSeconds) {
  LoadPointResult result;
  result.offered_qps = offered_qps;

  // Pre-compute each connection's Poisson schedule so the send loop does
  // nothing but sleep-and-write. Independent Poisson streams at rate/N per
  // connection superpose to a Poisson stream at the offered rate.
  const double per_conn_rate = offered_qps / kConnections;
  std::vector<std::vector<ScheduledRequest>> schedules(kConnections);
  size_t next_workload = 0;
  for (size_t c = 0; c < kConnections; ++c) {
    FastRng rng(MixSeed(seed, c));
    double t_micros = 0.0;
    while (true) {
      // Exponential inter-arrival gap, mean 1/rate.
      const double u = rng.UniformReal();
      t_micros += -std::log(1.0 - u) / per_conn_rate * 1e6;
      if (t_micros >= window_seconds * 1e6) break;
      schedules[c].push_back({static_cast<int64_t>(t_micros),
                              next_workload++ % request_docs.size()});
    }
    result.sent += schedules[c].size();
  }

  // The /stats probe brackets the window so qps_interval covers exactly
  // this load point.
  Result<NdjsonClient> probe = NdjsonClient::Connect("127.0.0.1", port);
  if (probe.ok()) {
    // The reply content is irrelevant (this read just starts the interval
    // window), but a failed probe would make qps_interval cover the wrong
    // span — surface it instead of dropping the status.
    Result<std::string> primed = probe.ValueOrDie().Call("GET /stats/bench");
    if (!primed.ok()) {
      std::fprintf(stderr, "warning: stats probe failed: %s\n",
                   primed.status().ToString().c_str());
    }
  }

  struct ConnTally {
    std::vector<double> latency_ms;
    size_t accepted = 0;
    size_t rejected = 0;
    size_t deadline_exceeded = 0;
    size_t bad = 0;
  };
  std::vector<ConnTally> tallies(kConnections);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ConnTally& tally = tallies[c];
      const std::vector<ScheduledRequest>& schedule = schedules[c];
      Result<NdjsonClient> client =
          NdjsonClient::Connect("127.0.0.1", port, /*read_timeout_ms=*/30'000);
      if (!client.ok()) {
        tally.bad += schedule.size();
        return;
      }
      // Sender and receiver are decoupled so a slow answer never delays
      // the next scheduled send (open-loop: arrivals do not wait for
      // completions). The server answers in request order per connection,
      // so the receiver pairs responses with requests by position.
      std::atomic<bool> send_failed{false};
      std::thread sender([&] {
        for (const ScheduledRequest& request : schedule) {
          std::this_thread::sleep_until(
              start + std::chrono::microseconds(request.arrival_micros));
          if (!client.ValueOrDie()
                   .SendLine(request_docs[request.workload_index])
                   .ok()) {
            send_failed = true;
            return;
          }
        }
      });
      for (const ScheduledRequest& request : schedule) {
        Result<std::string> answer = client.ValueOrDie().ReadLine();
        if (!answer.ok()) {
          ++tally.bad;
          if (send_failed) break;
          continue;
        }
        const auto now = std::chrono::steady_clock::now();
        // Latency from the SCHEDULED arrival: includes server queueing and
        // any sender lag, never excuses either.
        const double ms =
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    now - start)
                    .count() -
                request.arrival_micros) /
            1000.0;
        Result<QueryResponse> response =
            DecodeQueryResponseJson(answer.ValueOrDie());
        if (response.ok()) {
          if (response.ValueOrDie().answers ==
              references[request.workload_index].answers) {
            ++tally.accepted;
            tally.latency_ms.push_back(ms);
          } else {
            ++tally.bad;  // accepted but NOT bit-identical
          }
          continue;
        }
        // Error document: only the overload trichotomy is acceptable.
        Result<JsonValue> parsed = JsonValue::Parse(answer.ValueOrDie());
        std::string code;
        if (parsed.ok() && parsed.ValueOrDie().Find("error") != nullptr) {
          const JsonValue* c_field =
              parsed.ValueOrDie().Find("error")->Find("code");
          if (c_field != nullptr) code = c_field->string_value();
        }
        if (code == "ResourceExhausted") {
          ++tally.rejected;
        } else if (code == "DeadlineExceeded") {
          ++tally.deadline_exceeded;
        } else {
          ++tally.bad;
        }
      }
      sender.join();
    });
  }
  for (auto& t : threads) t.join();
  result.wall_seconds =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count()) /
      1e6;

  if (probe.ok()) {
    Result<std::string> stats = probe.ValueOrDie().Call("GET /stats/bench");
    if (stats.ok()) {
      result.server_qps_interval =
          ParseIntervalQps(stats.ValueOrDie(), "bench");
    }
  }

  std::vector<double> latency_ms;
  for (const ConnTally& tally : tallies) {
    latency_ms.insert(latency_ms.end(), tally.latency_ms.begin(),
                      tally.latency_ms.end());
    result.accepted += tally.accepted;
    result.rejected += tally.rejected;
    result.deadline_exceeded += tally.deadline_exceeded;
    result.bad += tally.bad;
  }
  result.achieved_qps =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.accepted) / result.wall_seconds
          : 0.0;
  result.p50_ms = Percentile(&latency_ms, 0.50);
  result.p95_ms = Percentile(&latency_ms, 0.95);
  result.p99_ms = Percentile(&latency_ms, 0.99);
  result.max_ms = latency_ms.empty()
                      ? 0.0
                      : *std::max_element(latency_ms.begin(),
                                          latency_ms.end());
  return result;
}

int Run() {
  auto generated = GenerateDataset(DbpediaLikeSpec(0.5, 42));
  if (!generated.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  GeneratedDataset& ds = *generated.ValueOrDie();
  const std::vector<QueryWithGold> workload = MakeStandardWorkload(ds, 8);
  if (workload.empty()) {
    std::fprintf(stderr, "empty workload\n");
    return 1;
  }
  const size_t nodes = ds.graph->NumNodes();
  const size_t edges = ds.graph->NumEdges();

  KgSessionOptions session_options;
  session_options.num_threads = kPoolThreads;
  session_options.max_in_flight = kMaxInFlight;
  session_options.max_queued = kMaxQueued;
  session_options.honor_request_priority = false;  // untrusted wire clients
  KgSession session(session_options);
  Status registered = session.RegisterDataset(
      "bench", std::move(ds.graph), std::move(ds.space),
      std::move(ds.library));
  if (!registered.ok()) {
    std::fprintf(stderr, "register: %s\n", registered.ToString().c_str());
    return 1;
  }

  // Build the wire documents once, and the in-process reference answers
  // (same facade, same options) for the bit-identity gate. The sequential
  // reference pass doubles as the service-time calibration.
  std::vector<std::string> request_docs;
  std::vector<QueryResponse> references;
  double total_service_ms = 0.0;
  for (const QueryWithGold& q : workload) {
    QueryRequest request;
    request.dataset = "bench";
    request.query_graph = q.query;
    request.options.k = 20;
    request.deadline_ms = kDeadlineMs;
    StopWatch watch;
    auto r = session.Query(request);
    total_service_ms += watch.ElapsedMillis();
    if (!r.ok()) {
      std::fprintf(stderr, "reference %s: %s\n", q.description.c_str(),
                   r.status().ToString().c_str());
      return 1;
    }
    references.push_back(r.ValueOrDie());
    request_docs.push_back(EncodeQueryRequestJson(request));
  }
  const double mean_service_ms =
      total_service_ms / static_cast<double>(workload.size());

  TcpServerOptions server_options;
  server_options.max_connections = kConnections + 4;  // probes ride along
  TcpServer server(&session, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
    return 1;
  }

  // Calibrate the real serving capacity empirically: saturate the socket
  // path for one second and take the accepted-completion rate. The naive
  // in_flight / mean_service_ms estimate ignores everything the socket
  // path adds (framing, per-connection serialization, contention) and
  // overestimates capacity several-fold, which would mislabel every load
  // factor below.
  const double naive_qps =
      static_cast<double>(kMaxInFlight) * 1000.0 / mean_service_ms;
  const LoadPointResult saturation =
      RunLoadPoint(server.port(), request_docs, references,
                   /*offered_qps=*/naive_qps * 4.0, /*seed=*/999,
                   /*window_seconds=*/1.0);
  if (saturation.bad != 0 || saturation.accepted == 0) {
    std::fprintf(stderr, "calibration failed (accepted=%zu bad=%zu)\n",
                 saturation.accepted, saturation.bad);
    server.Stop();
    return 1;
  }
  const double capacity_qps = saturation.achieved_qps;
  std::fprintf(stderr, "calibration: naive=%.1fqps measured=%.1fqps\n",
               naive_qps, capacity_qps);

  const std::vector<double> load_factors = {0.5, 1.0, 2.0, 4.0};
  std::vector<LoadPointResult> points;
  bool gate_ok = true;
  for (size_t i = 0; i < load_factors.size(); ++i) {
    const double offered = capacity_qps * load_factors[i];
    LoadPointResult point = RunLoadPoint(server.port(), request_docs,
                                         references, offered,
                                         /*seed=*/1000 + i);
    std::fprintf(stderr,
                 "%.1fx offered=%7.1fqps sent=%5zu accepted=%5zu "
                 "rejected=%5zu ddl=%4zu bad=%zu p50=%7.2fms p95=%7.2fms\n",
                 load_factors[i], point.offered_qps, point.sent,
                 point.accepted, point.rejected, point.deadline_exceeded,
                 point.bad, point.p50_ms, point.p95_ms);
    if (point.bad != 0 ||
        point.accepted + point.rejected + point.deadline_exceeded !=
            point.sent) {
      gate_ok = false;
    }
    points.push_back(point);
  }
  server.Stop();

  // Cross-check the server's books: everything the clients tallied must
  // be in the service counters, and nothing may still be outstanding.
  const ServiceStatsSnapshot stats = session.Stats("bench").ValueOrDie();
  size_t tallied_rejected = saturation.rejected;
  for (const LoadPointResult& p : points) tallied_rejected += p.rejected;
  if (stats.admitted_outstanding != 0 ||
      stats.queries_rejected != tallied_rejected) {
    gate_ok = false;
  }
  if (!gate_ok) {
    std::fprintf(stderr, "correctness gate FAILED; no record written\n");
    return 1;
  }
  // The record is only meaningful when overload actually sheds load.
  if (points.back().rejected + points.back().deadline_exceeded == 0) {
    std::fprintf(stderr, "4x load shed nothing; no record written\n");
    return 1;
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_serving\",\n");
  std::printf("  \"dataset\": {\"nodes\": %zu, \"edges\": %zu},\n", nodes,
              edges);
  std::printf("  \"workload_queries\": %zu,\n", workload.size());
  std::printf("  \"transport\": \"TCP, newline-delimited JSON, %zu "
              "connections\",\n",
              kConnections);
  std::printf("  \"open_loop\": \"Poisson arrivals; latency measured from "
              "scheduled arrival, not send\",\n");
  std::printf("  \"server\": {\"pool_threads\": %zu, \"max_in_flight\": "
              "%zu, \"max_queued\": %zu, \"deadline_ms\": %lld},\n",
              kPoolThreads, kMaxInFlight, kMaxQueued,
              static_cast<long long>(kDeadlineMs));
  std::printf("  \"mean_service_ms\": %.3f,\n", mean_service_ms);
  std::printf("  \"capacity_qps_estimate\": %.1f,\n", capacity_qps);
  std::printf("  \"correctness_gate\": \"accepted answers bit-identical to "
              "in-process KgSession::Query; every non-OK outcome is "
              "ResourceExhausted or DeadlineExceeded; accepted + rejected "
              "+ deadline_exceeded == sent; service counters match\",\n");
  std::printf("  \"load_points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const LoadPointResult& p = points[i];
    std::printf(
        "    {\"load_factor\": %.1f, \"offered_qps\": %.1f, \"sent\": %zu, "
        "\"accepted\": %zu, \"rejected\": %zu, \"deadline_exceeded\": %zu, "
        "\"wall_seconds\": %.3f, \"achieved_qps\": %.1f, "
        "\"server_qps_interval\": %.1f, \"p50_ms\": %.3f, \"p95_ms\": "
        "%.3f, \"p99_ms\": %.3f, \"max_ms\": %.3f}%s\n",
        load_factors[i], p.offered_qps, p.sent, p.accepted, p.rejected,
        p.deadline_exceeded, p.wall_seconds, p.achieved_qps,
        p.server_qps_interval, p.p50_ms, p.p95_ms, p.p99_ms, p.max_ms,
        i + 1 < points.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace kgsearch

int main() { return kgsearch::Run(); }
