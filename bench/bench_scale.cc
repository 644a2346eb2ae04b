// Scale characterization of the full serving path on scale-generated
// graphs: 10k / 100k / 1M nodes (pass a max node count as argv[1] to cap
// the sweep for quick local runs).
//
// Per scale the bench measures, in order:
//   1. streamed generation  — GenerateScaleKgToFile (O(chunk) memory)
//   2. cold start           — KgSession::LoadDataset on the kgpack file
//   3. serving              — closed-loop clients over the insight mix,
//                             client-observed p50/p95 latency and QPS
//
// Correctness gate (the BENCH_scale record is only written when it holds):
// at 10k and 100k every answer served from the loaded snapshot is
// bit-identical (id and score) to a serial SgqEngine over an independent
// in-memory build of the same spec, cold and warm, with status codes
// agreeing on failures. At 1M — where the in-memory reference would defeat
// the point of streaming — the gate is cold/warm answer stability.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "bench_util.h"
#include "core/engine.h"
#include "gen/insight_workload.h"
#include "gen/scale_kg.h"
#include "util/clock.h"

namespace kgsearch {
namespace {

struct ScaleResult {
  uint64_t nodes = 0;
  uint64_t edges = 0;
  uint64_t file_bytes = 0;
  uint64_t edge_passes = 0;
  double gen_seconds = 0.0;
  double load_seconds = 0.0;
  std::string gate;  // which gate this scale passed
  size_t requests = 0;
  size_t ok = 0;
  size_t failed = 0;  // unresolvable alias-noised queries; expected
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

std::vector<std::pair<uint32_t, double>> Fingerprint(
    const QueryResponse& response) {
  std::vector<std::pair<uint32_t, double>> fp;
  fp.reserve(response.answers.size());
  for (const AnswerDto& a : response.answers) {
    fp.emplace_back(a.id, a.score);
  }
  return fp;
}

QueryRequest MakeRequest(const InsightQuery& insight) {
  QueryRequest request;
  request.dataset = "scale";
  request.query_graph = insight.query;
  request.options.k = 10;
  return request;
}

/// Answers from the loaded snapshot must match a serial SgqEngine over the
/// independent in-memory build, cold and warm. Returns false on any drift.
bool GateAgainstSerialReference(KgSession* session, const ScaleKgSpec& spec,
                                const std::vector<InsightQuery>& mix) {
  auto built = BuildScaleKgInMemory(spec);
  if (!built.ok()) {
    std::fprintf(stderr, "in-memory build: %s\n",
                 built.status().ToString().c_str());
    return false;
  }
  const DatasetSnapshot& reference = built.ValueOrDie();
  SgqEngine serial(reference.graph.get(), reference.space.get(),
                   &reference.library);
  for (const InsightQuery& iq : mix) {
    EngineOptions o;
    o.k = 10;
    o.threads = 1;
    auto expected = serial.Query(iq.query, o);
    const auto cold = session->Query(MakeRequest(iq));
    const auto warm = session->Query(MakeRequest(iq));
    if (cold.ok() != expected.ok() || warm.ok() != expected.ok()) {
      std::fprintf(stderr, "gate: status drift on %s\n",
                   iq.description.c_str());
      return false;
    }
    if (!expected.ok()) {
      if (cold.status().code() != expected.status().code() ||
          warm.status().code() != expected.status().code()) {
        std::fprintf(stderr, "gate: status-code drift on %s\n",
                     iq.description.c_str());
        return false;
      }
      continue;
    }
    std::vector<std::pair<uint32_t, double>> fp;
    fp.reserve(expected.ValueOrDie().matches.size());
    for (const FinalMatch& m : expected.ValueOrDie().matches) {
      fp.emplace_back(m.pivot_match, m.score);
    }
    if (Fingerprint(cold.ValueOrDie()) != fp ||
        Fingerprint(warm.ValueOrDie()) != fp) {
      std::fprintf(stderr, "gate: answer drift on %s\n",
                   iq.description.c_str());
      return false;
    }
  }
  return true;
}

/// At 1M nodes the gate is answer stability: a second pass over the mix
/// returns exactly what the first did, statuses included.
bool GateColdWarmStability(KgSession* session,
                           const std::vector<InsightQuery>& mix) {
  for (const InsightQuery& iq : mix) {
    const auto cold = session->Query(MakeRequest(iq));
    const auto warm = session->Query(MakeRequest(iq));
    if (cold.ok() != warm.ok()) return false;
    if (!cold.ok()) {
      if (cold.status().code() != warm.status().code()) return false;
      continue;
    }
    if (Fingerprint(cold.ValueOrDie()) != Fingerprint(warm.ValueOrDie())) {
      return false;
    }
  }
  return true;
}

Result<ScaleResult> RunScale(uint64_t num_nodes, double measure_seconds) {
  const ScaleKgSpec spec = ScaleSpecFor(num_nodes);
  const std::string path =
      "/tmp/bench_scale_" + std::to_string(num_nodes) + ".kgpack";

  ScaleResult result;
  result.nodes = num_nodes;

  StopWatch watch;
  auto report = GenerateScaleKgToFile(spec, path);
  if (!report.ok()) return report.status();
  result.gen_seconds = static_cast<double>(watch.ElapsedMicros()) / 1e6;
  result.edges = report.ValueOrDie().num_edges;
  result.file_bytes = report.ValueOrDie().file_bytes;
  result.edge_passes = report.ValueOrDie().edge_passes;

  KgSessionOptions options;
  options.num_threads = 4;
  KgSession session(options);
  DatasetLoadOptions load;
  load.graph_path = path;
  watch.Restart();
  Status loaded = session.LoadDataset("scale", load);
  result.load_seconds = static_cast<double>(watch.ElapsedMicros()) / 1e6;
  std::remove(path.c_str());
  if (!loaded.ok()) return loaded;

  const InsightProfile profile = MakeInsightProfile(spec);
  InsightMixOptions mix_options;
  mix_options.num_queries = 24;
  const std::vector<InsightQuery> mix = BuildInsightMix(profile, mix_options);

  if (num_nodes <= 100'000) {
    if (!GateAgainstSerialReference(&session, spec, mix)) {
      return Status::Internal("correctness gate failed");
    }
    result.gate = "bit-identical to serial SgqEngine (cold+warm)";
  } else {
    if (!GateColdWarmStability(&session, mix)) {
      return Status::Internal("cold/warm stability gate failed");
    }
    result.gate = "cold/warm answer stability";
  }

  // Closed-loop measurement: 4 clients issue sync queries round-robin over
  // the mix until the time box elapses; per-request latency is client-side.
  const size_t clients = 4;
  struct Tally {
    std::vector<double> ms;
    size_t failed = 0;
  };
  std::vector<Tally> tallies(clients);
  StopWatch wall;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Tally& tally = tallies[c];
      size_t i = c;
      while (static_cast<double>(wall.ElapsedMicros()) / 1e6 <
             measure_seconds) {
        StopWatch latency;
        const auto r = session.Query(MakeRequest(mix[i % mix.size()]));
        if (r.ok()) {
          tally.ms.push_back(latency.ElapsedMillis());
        } else {
          ++tally.failed;  // alias-noised misses; gated above as expected
        }
        ++i;
      }
    });
  }
  for (auto& t : threads) t.join();
  result.wall_seconds = static_cast<double>(wall.ElapsedMicros()) / 1e6;

  std::vector<double> all_ms;
  for (Tally& tally : tallies) {
    all_ms.insert(all_ms.end(), tally.ms.begin(), tally.ms.end());
    result.failed += tally.failed;
  }
  result.ok = all_ms.size();
  result.requests = result.ok + result.failed;
  result.qps =
      static_cast<double>(result.requests) / result.wall_seconds;
  result.p50_ms = Percentile(&all_ms, 0.50);
  result.p95_ms = Percentile(&all_ms, 0.95);
  return result;
}

int Run(int argc, char** argv) {
  uint64_t max_nodes = 1'000'000;
  if (argc > 1) max_nodes = std::strtoull(argv[1], nullptr, 10);

  std::vector<uint64_t> scales;
  for (uint64_t n : {10'000ull, 100'000ull, 1'000'000ull}) {
    if (n <= max_nodes) scales.push_back(n);
  }
  if (scales.empty()) {
    std::fprintf(stderr, "max_nodes %llu below smallest scale\n",
                 (unsigned long long)max_nodes);
    return 1;
  }

  std::vector<ScaleResult> results;
  for (uint64_t n : scales) {
    auto r = RunScale(n, /*measure_seconds=*/3.0);
    if (!r.ok()) {
      std::fprintf(stderr, "scale %llu: %s\n", (unsigned long long)n,
                   r.status().ToString().c_str());
      return 1;
    }
    const ScaleResult& s = r.ValueOrDie();
    std::fprintf(stderr,
                 "scale %7llu: edges=%llu file=%.1fMB gen=%.2fs load=%.3fs "
                 "qps=%.0f p50=%.2fms p95=%.2fms (%zu ok / %zu failed)\n",
                 (unsigned long long)s.nodes, (unsigned long long)s.edges,
                 static_cast<double>(s.file_bytes) / 1e6, s.gen_seconds,
                 s.load_seconds, s.qps, s.p50_ms, s.p95_ms, s.ok, s.failed);
    results.push_back(std::move(r).ValueOrDie());
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_scale\",\n");
  std::printf("  \"clients\": 4,\n");
  std::printf("  \"pool_threads\": 4,\n");
  std::printf("  \"insight_mix_queries\": 24,\n");
  std::printf(
      "  \"correctness_gate\": \"<=100k: served answers bit-identical to "
      "serial SgqEngine over an independent in-memory build, cold and "
      "warm; 1M: cold/warm answer stability\",\n");
  std::printf("  \"scales\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& s = results[i];
    std::printf(
        "    {\"nodes\": %llu, \"edges\": %llu, \"file_bytes\": %llu, "
        "\"edge_passes\": %llu, \"gen_seconds\": %.3f, "
        "\"load_seconds\": %.3f, \"gate\": \"%s\", \"requests\": %zu, "
        "\"ok\": %zu, \"failed\": %zu, \"wall_seconds\": %.3f, "
        "\"qps\": %.1f, \"p50_ms\": %.3f, \"p95_ms\": %.3f}%s\n",
        (unsigned long long)s.nodes, (unsigned long long)s.edges,
        (unsigned long long)s.file_bytes, (unsigned long long)s.edge_passes,
        s.gen_seconds, s.load_seconds, s.gate.c_str(), s.requests, s.ok,
        s.failed, s.wall_seconds, s.qps, s.p50_ms, s.p95_ms,
        i + 1 < results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace kgsearch

int main(int argc, char** argv) { return kgsearch::Run(argc, argv); }
