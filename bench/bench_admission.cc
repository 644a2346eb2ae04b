// Tail latency under overload, with and without admission control.
//
// 4x more closed-loop clients than the dataset has capacity hammer one
// KgSession through Submit, the path every wire request takes. Without
// admission every request is accepted and waits at the back of an
// ever-deeper queue — client-observed p95 grows with the backlog. With a
// bounded admission gate the overflow is rejected in microseconds
// (kResourceExhausted) and the accepted requests' p95 stays near the
// uncontended service time. A third configuration adds a hard per-request
// deadline on top. Each configuration runs for the same fixed wall-clock
// window rather than a fixed request count: rejections return in
// microseconds, so a fixed count would give the admission configs a run
// far shorter than no_admission's, too short to resolve a p95.
//
// Correctness gate (the BENCH_admission record is only written when it
// holds, and the exit code is 1 otherwise): every accepted answer is
// bit-identical to serial SgqEngine execution, every non-OK outcome is
// exactly kResourceExhausted or — only for requests that carried a
// deadline — kDeadlineExceeded, the dataset's counters reconcile with the
// client tallies, and the admission config sheds load at 4x overload.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "bench_util.h"
#include "eval/harness.h"
#include "gen/synthetic_kg.h"

namespace kgsearch {
namespace {

struct Config {
  std::string name;
  size_t max_in_flight = 0;  // 0 = admission off
  size_t max_queued = 0;
  int64_t deadline_ms = 0;   // 0 = none
};

struct RunResult {
  std::string name;
  size_t clients = 0;
  size_t requests = 0;
  size_t accepted = 0;
  size_t rejected = 0;
  size_t deadline_exceeded = 0;
  double wall_seconds = 0.0;
  double accepted_p50_ms = 0.0;
  double accepted_p95_ms = 0.0;
  double accepted_max_ms = 0.0;
  double rejected_p95_ms = 0.0;  ///< how fast "no" is said
  bool gate_ok = true;
};

/// The benchmark dataset; deterministic, so every call builds the same one.
Result<std::unique_ptr<GeneratedDataset>> MakeBenchDataset() {
  return GenerateDataset(DbpediaLikeSpec(0.5, 42));
}

RunResult RunConfig(const std::vector<QueryWithGold>& workload,
                    const std::vector<std::vector<NodeId>>& reference,
                    const Config& config, size_t pool_threads,
                    size_t clients, int64_t window_micros) {
  RunResult result;
  result.name = config.name;
  result.clients = clients;
  KgSessionOptions soptions;
  soptions.num_threads = pool_threads;
  soptions.max_in_flight = config.max_in_flight;
  soptions.max_queued = config.max_queued;
  KgSession session(soptions);
  auto generated = MakeBenchDataset();
  if (!generated.ok() ||
      !session
           .RegisterDataset("bench", std::move(generated.ValueOrDie()->graph),
                            std::move(generated.ValueOrDie()->space),
                            std::move(generated.ValueOrDie()->library))
           .ok()) {
    result.gate_ok = false;
    return result;
  }

  struct ClientTally {
    size_t requests = 0;
    std::vector<double> accepted_ms;
    std::vector<double> rejected_ms;
    size_t rejected = 0;
    size_t deadline_exceeded = 0;
    size_t bad = 0;  // wrong status or wrong answer
  };
  std::vector<ClientTally> tallies(clients);

  StopWatch wall;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientTally& tally = tallies[c];
      // Closed loop until the window closes; a request in flight then
      // finishes and is counted.
      for (size_t i = 0; wall.ElapsedMicros() < window_micros; ++i) {
        const size_t w = (i + c) % workload.size();
        ++tally.requests;
        QueryRequest request;
        request.dataset = "bench";
        request.query_graph = workload[w].query;
        request.options.k = 20;
        request.deadline_ms = config.deadline_ms;
        StopWatch latency;
        auto future = session.Submit(std::move(request));
        auto r = future.get();
        const double ms = latency.ElapsedMillis();
        if (r.ok()) {
          tally.accepted_ms.push_back(ms);
          std::vector<NodeId> ids;
          for (const AnswerDto& a : r.ValueOrDie().answers) {
            ids.push_back(a.id);
          }
          if (ids != reference[w]) ++tally.bad;
        } else if (r.status().code() == StatusCode::kResourceExhausted) {
          tally.rejected_ms.push_back(ms);
          ++tally.rejected;
        } else if (r.status().code() == StatusCode::kDeadlineExceeded &&
                   config.deadline_ms > 0) {
          ++tally.deadline_exceeded;
        } else {
          ++tally.bad;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  result.wall_seconds = static_cast<double>(wall.ElapsedMicros()) / 1e6;
  std::vector<double> accepted_ms, rejected_ms;
  for (const ClientTally& tally : tallies) {
    accepted_ms.insert(accepted_ms.end(), tally.accepted_ms.begin(),
                       tally.accepted_ms.end());
    rejected_ms.insert(rejected_ms.end(), tally.rejected_ms.begin(),
                       tally.rejected_ms.end());
    result.requests += tally.requests;
    result.rejected += tally.rejected;
    result.deadline_exceeded += tally.deadline_exceeded;
    if (tally.bad > 0) result.gate_ok = false;
  }
  result.accepted = accepted_ms.size();
  result.accepted_p50_ms = Percentile(&accepted_ms, 0.50);
  result.accepted_p95_ms = Percentile(&accepted_ms, 0.95);
  result.accepted_max_ms = accepted_ms.empty()
                               ? 0.0
                               : *std::max_element(accepted_ms.begin(),
                                                   accepted_ms.end());
  result.rejected_p95_ms = Percentile(&rejected_ms, 0.95);
  if (result.accepted + result.rejected + result.deadline_exceeded !=
      result.requests) {
    result.gate_ok = false;  // a request resolved outside the trichotomy
  }
  // Cross-check the dataset's own books against the client-side tally.
  const ServiceStatsSnapshot stats = session.Stats("bench").ValueOrDie();
  if (stats.queries_rejected != result.rejected ||
      stats.queries_deadline_exceeded != result.deadline_exceeded ||
      stats.admitted_outstanding != 0) {
    result.gate_ok = false;
  }
  return result;
}

int Run() {
  auto generated = MakeBenchDataset();
  if (!generated.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const GeneratedDataset& ds = *generated.ValueOrDie();
  const std::vector<QueryWithGold> workload = MakeStandardWorkload(ds, 8);
  if (workload.empty()) {
    std::fprintf(stderr, "empty workload\n");
    return 1;
  }

  // Serial reference answers (threads = 1) for the correctness gate.
  SgqEngine serial(ds.graph.get(), ds.space.get(), &ds.library);
  std::vector<std::vector<NodeId>> reference;
  for (const QueryWithGold& q : workload) {
    EngineOptions o;
    o.k = 20;
    o.threads = 1;
    auto r = serial.Query(q.query, o);
    if (!r.ok()) {
      std::fprintf(stderr, "serial %s: %s\n", q.description.c_str(),
                   r.status().ToString().c_str());
      return 1;
    }
    reference.push_back(r.ValueOrDie().AnswerIds());
  }

  // Capacity 4 (2 executing + 2 queued) vs 16 closed-loop clients = 4x.
  const size_t pool_threads = 2;
  const size_t clients = 16;
  const int64_t window_micros = 1'000'000;
  const std::vector<Config> configs = {
      {"no_admission", 0, 0, 0},
      {"admission", 2, 2, 0},
      {"admission_plus_deadline", 2, 2, 50},
  };

  std::vector<RunResult> results;
  for (const Config& config : configs) {
    RunResult r =
        RunConfig(workload, reference, config, pool_threads, clients,
                  window_micros);
    std::fprintf(stderr,
                 "%-24s requests=%4zu accepted=%4zu rejected=%4zu "
                 "ddl=%3zu p95=%8.2fms gate=%s\n",
                 r.name.c_str(), r.requests, r.accepted, r.rejected,
                 r.deadline_exceeded, r.accepted_p95_ms,
                 r.gate_ok ? "ok" : "FAILED");
    if (!r.gate_ok) {
      std::fprintf(stderr, "correctness gate failed in %s\n",
                   r.name.c_str());
      return 1;
    }
    results.push_back(std::move(r));
  }

  // The record is only meaningful when overload control actually sheds
  // load under 4x overload.
  if (results[1].rejected == 0) {
    std::fprintf(stderr, "admission config rejected nothing at 4x load\n");
    return 1;
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_admission\",\n");
  std::printf("  \"dataset\": {\"nodes\": %zu, \"edges\": %zu},\n",
              ds.graph->NumNodes(), ds.graph->NumEdges());
  std::printf("  \"workload_queries\": %zu,\n", workload.size());
  std::printf("  \"pool_threads\": %zu,\n", pool_threads);
  std::printf("  \"capacity\": {\"max_in_flight\": 2, \"max_queued\": 2},\n");
  std::printf("  \"overload\": \"%zu closed-loop clients = 4x capacity\",\n",
              clients);
  std::printf("  \"path\": \"KgSession::Submit\",\n");
  std::printf("  \"window_seconds\": %.1f,\n",
              static_cast<double>(window_micros) / 1e6);
  std::printf("  \"correctness_gate\": \"accepted answers bit-identical to "
              "serial SgqEngine; every non-OK outcome is ResourceExhausted "
              "or (with deadlines) DeadlineExceeded; dataset counters match "
              "client tallies\",\n");
  std::printf("  \"configs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::printf(
        "    {\"name\": \"%s\", \"requests\": %zu, \"accepted\": %zu, "
        "\"rejected\": %zu, \"deadline_exceeded\": %zu, "
        "\"wall_seconds\": %.3f, \"accepted_p50_ms\": %.3f, "
        "\"accepted_p95_ms\": %.3f, \"accepted_max_ms\": %.3f, "
        "\"rejected_p95_ms\": %.3f}%s\n",
        r.name.c_str(), r.requests, r.accepted, r.rejected,
        r.deadline_exceeded, r.wall_seconds, r.accepted_p50_ms,
        r.accepted_p95_ms, r.accepted_max_ms, r.rejected_p95_ms,
        i + 1 < results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace kgsearch

int main() { return kgsearch::Run(); }
