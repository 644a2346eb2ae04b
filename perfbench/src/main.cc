// perfbench: one workload of the wire-level benchmark, end to end.
//
//   perfbench --workload sgq_10k --seed 1 --seconds 15 --trace 0
//
// A run generates the workload's kgpack (input preparation, untimed), sets
// the server up several times (setup_s is their median), warms the caches
// with one pass over the distinct queries, then drives one closed-loop
// NDJSON connection for --seconds. One request is in flight at a time, so
// the process CPU time that passes during a call is that request's, client
// and server together; the end-to-end timings are these CPU times, and the
// wall-clock ones are printed beside them. On ingest_100k a writer
// connection commits one ingest batch after every kQueriesPerBatch queries,
// and the window ends when the stream is committed; the read-only
// workloads commit the same kind of stream after their window. Every answer
// is checked; the reference is a serial SgqEngine over an independent
// in-memory build of the same graph, built after the peak RSS has been
// read. The last stdout line is the result object; the lines before it
// report every metric by name and unit, the provenance record, and any gate
// failure.
//
// --trace 1 runs the same workload with a traced window: each request goes
// over the wire and then, from the benchmark's own thread, through
// KgSession::Query, QueryService, the engine, and a serial replay of the
// engine pipeline, each call timed as a span. It prints the per-layer
// metrics and the stage-sum reconciliation instead of the end-to-end ones;
// a residual outside its tolerance fails the run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arith.h"
#include "core/time_bounded.h"
#include "embedding/simd_kernels.h"
#include "ingest_stream.h"
#include "kg/delta_overlay.h"
#include "replay.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "wire.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using kgsearch::JsonValue;
using kgsearch::QueryMode;
using Clock = std::chrono::steady_clock;

constexpr size_t kSetupRepeats = 9;
constexpr size_t kReferenceThreads = 4;
/// The stage-sum reconciliation holds when the median per-request residual
/// is within this share of the median wire call.
constexpr double kResidualTolerance = 0.15;
constexpr size_t kNeighborSample = size_t{1} << 16;
constexpr size_t kNeighborSweeps = 7;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string source = "unknown";
};

/// Generated inputs and span logs, relative to the checkout root.
constexpr const char* kWorkDir = ".bench_build/perfbench-data";

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// ----- the correctness gate -----

/// Gate failures, split into requests that failed (by status code) and
/// defects in answers or state.
struct Gate {
  size_t attempted = 0;
  std::map<std::string, size_t> failed_by_code;
  std::vector<std::string> defects;
  size_t defect_count = 0;

  void Failed(const std::string& code) { ++failed_by_code[code]; }
  void Defect(std::string what) {
    if (defects.size() < 8) defects.push_back(std::move(what));
    ++defect_count;
  }
  size_t failed() const {
    size_t n = 0;
    for (const auto& [code, count] : failed_by_code) n += count;
    return n;
  }
  bool correct() const { return failed() == 0 && defect_count == 0; }
};

bool SameStats(const kgsearch::ResponseStats& a,
               const kgsearch::ResponseStats& b) {
  return a.subqueries == b.subqueries && a.expanded == b.expanded &&
         a.generated == b.generated &&
         a.ta_sorted_accesses == b.ta_sorted_accesses &&
         a.ta_early_terminated == b.ta_early_terminated;
}

// ----- per-layer metric collection -----

/// Named per-request samples of a traced window.
using Samples = std::map<std::string, std::vector<double>>;

/// The result's metric object, in the order metrics are added.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    JsonValue m = JsonValue::Object();
    m.Set("value", JsonValue::Number(value));
    m.Set("unit", JsonValue::String(unit));
    json_.Set(name, std::move(m));
    std::printf("  %-32s %14.6f %s\n", name.c_str(), value, unit.c_str());
  }
  /// A metric the run could not measure: printed with the reason and left
  /// out of the result (which then fails the contract loudly).
  void Absent(const std::string& name, const std::string& why) {
    std::printf("  %-32s absent: %s\n", name.c_str(), why.c_str());
    absent_ = true;
  }
  const JsonValue& json() const { return json_; }
  bool any_absent() const { return absent_; }

 private:
  JsonValue json_ = JsonValue::Object();
  bool absent_ = false;
};

// ----- the shared pieces of one run -----

struct Batches {
  IngestStream stream;
  std::vector<std::string> lines;  ///< wire documents
};

Batches MakeBatches(const kgsearch::ScaleKgSpec& spec, uint64_t base_nodes,
                    uint64_t base_edges, size_t count, uint64_t seed) {
  Batches b;
  b.stream =
      MakeIngestStream(spec, base_nodes, base_edges, kDataset, count, seed);
  for (const kgsearch::IngestRequest& r : b.stream.batches) {
    b.lines.push_back(kgsearch::EncodeIngestRequestJson(r));
  }
  return b;
}

/// Everything a run shares across its phases.
struct Run {
  Args args;
  const WorkloadSpec* workload = nullptr;
  kgsearch::ScaleKgSpec spec;
  uint64_t base_edges = 0;
  std::string kgpack;
  std::vector<kgsearch::InsightQuery> mix;
  std::vector<std::string> request_lines;
  std::unique_ptr<BenchServer> bench;
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  std::vector<double> load_s;
  kgsearch::NdjsonClient client;
  kgsearch::NdjsonClient writer;
  std::vector<Answer> warm;  ///< per distinct query, at epoch 0
  Gate gate;
  JsonValue wall = JsonValue::Object();  ///< wall-clock figures, no bound
  CpuTimes cpu_at_start = ReadCpuTimes();

  /// Ingest bookkeeping: batches committed so far and the wall and process
  /// CPU time of the timed acks.
  uint64_t epoch = 0;
  std::vector<double> ack_ms;
  std::vector<double> ack_cpu_ms;
};

/// Sends batch `index` over the writer connection and checks its ack: the
/// next epoch and the full op count. With `timed`, the call's wall and CPU
/// time join the run's ack samples. `mirror` (may be null) commits the batch
/// into the benchmark's own overlay too, timing that into `commit_ms`.
/// False on failure (already recorded in the gate).
bool Commit(Run* run, const Batches& batches, size_t index, bool timed,
            kgsearch::DeltaOverlay* mirror, std::vector<double>* commit_ms) {
  const double cpu0 = ProcessCpuMs();
  const Clock::time_point t0 = Clock::now();
  kgsearch::Result<std::string> line = run->writer.Call(batches.lines[index]);
  const double ms = Ms(Clock::now() - t0);
  const double cpu_ms = ProcessCpuMs() - cpu0;
  ++run->gate.attempted;
  if (!line.ok()) {
    run->gate.Failed("Transport");
    return false;
  }
  kgsearch::Result<kgsearch::IngestResponse> ack =
      kgsearch::DecodeIngestResponseJson(line.ValueOrDie());
  if (!ack.ok()) {
    Answer a = DecodeWireAnswer(line.ValueOrDie());
    run->gate.Failed(a.ok() ? "Transport" : a.code);
    return false;
  }
  ++run->epoch;
  if (ack.ValueOrDie().epoch != run->epoch ||
      ack.ValueOrDie().ops_applied !=
          batches.stream.batches[index].ops.size()) {
    run->gate.Defect(kgsearch::StrFormat(
        "ingest ack %zu: epoch %llu ops %llu, want epoch %llu ops %zu", index,
        static_cast<unsigned long long>(ack.ValueOrDie().epoch),
        static_cast<unsigned long long>(ack.ValueOrDie().ops_applied),
        static_cast<unsigned long long>(run->epoch),
        batches.stream.batches[index].ops.size()));
  }
  if (timed) {
    run->ack_ms.push_back(ms);
    run->ack_cpu_ms.push_back(cpu_ms);
  }
  if (mirror != nullptr) {
    const Clock::time_point m0 = Clock::now();
    kgsearch::Result<uint64_t> epoch =
        mirror->Commit(ToMutationBatch(batches.stream.batches[index]));
    commit_ms->push_back(Ms(Clock::now() - m0));
    if (!epoch.ok() || epoch.ValueOrDie() != run->epoch) {
      run->gate.Defect("mirror overlay commit disagrees with the server");
    }
  }
  return true;
}

/// ListDatasets must report the node and edge counts of the stream's model.
void CheckCounts(Run* run, uint64_t nodes, uint64_t edges, const char* when) {
  for (const kgsearch::DatasetInfo& info :
       run->bench->session->ListDatasets()) {
    if (info.name != kDataset) continue;
    if (info.nodes != nodes || info.edges != edges) {
      run->gate.Defect(kgsearch::StrFormat(
          "%s: dataset has %zu nodes / %zu edges, stream model says %llu / "
          "%llu",
          when, info.nodes, info.edges, static_cast<unsigned long long>(nodes),
          static_cast<unsigned long long>(edges)));
    }
    return;
  }
  run->gate.Defect(std::string(when) + ": dataset missing from ListDatasets");
}

/// One request per distinct query: warms the caches, and its answers are
/// what every later answer is checked against.
std::vector<Answer> WarmPass(Run* run) {
  std::vector<Answer> answers(run->mix.size());
  for (size_t q = 0; q < run->mix.size(); ++q) {
    kgsearch::Result<std::string> line = run->client.Call(run->request_lines[q]);
    ++run->gate.attempted;
    if (!line.ok()) {
      run->gate.Failed("Transport");
      answers[q].code = "Transport";
      continue;
    }
    answers[q] = DecodeWireAnswer(line.ValueOrDie());
  }
  return answers;
}

/// Replaces the run's server with a fresh one loaded from the kgpack, and
/// connects the client and the writer to it.
kgsearch::Status StartServing(Run* run) {
  run->client = kgsearch::NdjsonClient();
  run->writer = kgsearch::NdjsonClient();
  run->bench.reset();
  kgsearch::Result<std::unique_ptr<BenchServer>> bench =
      StartBenchServer(run->kgpack, kPoolThreads);
  KG_RETURN_NOT_OK(bench.status());
  run->bench = std::move(bench).ValueOrDie();
  run->epoch = 0;
  kgsearch::Result<kgsearch::NdjsonClient> client = ConnectClient(*run->bench);
  KG_RETURN_NOT_OK(client.status());
  run->client = std::move(client).ValueOrDie();
  kgsearch::Result<kgsearch::NdjsonClient> writer = ConnectClient(*run->bench);
  KG_RETURN_NOT_OK(writer.status());
  run->writer = std::move(writer).ValueOrDie();
  return kgsearch::Status::OK();
}

kgsearch::Status Prepare(Run* run) {
  run->spec = kgsearch::ScaleSpecFor(run->workload->nodes, kGraphSeed);
  std::filesystem::create_directories(kWorkDir);
  run->kgpack = std::string(kWorkDir) + "/" + run->workload->name + ".kgpack";
  kgsearch::Result<kgsearch::ScaleGenReport> report =
      kgsearch::GenerateScaleKgToFile(run->spec, run->kgpack);
  KG_RETURN_NOT_OK(report.status());
  run->base_edges = report.ValueOrDie().num_edges;

  run->mix = BuildMix(*run->workload, run->args.seed);
  for (const kgsearch::InsightQuery& q : run->mix) {
    run->request_lines.push_back(kgsearch::EncodeQueryRequestJson(
        MakeRequest(*run->workload, q.query)));
  }

  // Set up several times; the last server stays up for the run.
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    KG_RETURN_NOT_OK(StartServing(run));
    run->setup_s.push_back(run->bench->setup_s);
    run->setup_cpu_s.push_back(run->bench->setup_cpu_s);
    run->load_s.push_back(run->bench->load_s);
  }
  run->warm = WarmPass(run);
  return kgsearch::Status::OK();
}

// ----- the closed-loop query window -----

/// An ingest window's answer and the epoch it ran at, kept for the
/// after-window exact check.
struct EpochSample {
  uint32_t query = 0;
  uint64_t epoch = 0;
  Answer answer;
};

struct WindowResult {
  std::vector<double> latency_ms;  ///< wall time per query request
  std::vector<double> cpu_ms;      ///< process CPU time per query request
  double seconds = 0.0;
  std::vector<EpochSample> epoch_samples;
  std::vector<std::pair<size_t, Answer>> tbq_answers;  ///< (query, answer)
  Samples layers;  ///< traced windows only
  std::vector<Span> spans;  ///< traced windows only
};

/// What the traced path needs on top of the wire: the in-process handles and
/// the overlay mirroring the server's commits.
struct TraceContext {
  kgsearch::KgSession* session = nullptr;
  kgsearch::QueryService* service = nullptr;
  const kgsearch::KnowledgeGraph* graph = nullptr;
  kgsearch::DeltaOverlay* overlay = nullptr;  ///< mirror; may be null
  std::vector<double>* commit_ms = nullptr;
};

/// One request through every layer from the benchmark's side: wire call,
/// then KgSession::Query, QueryService, the engine, and the serial replay.
/// Records spans into `log` and per-request layer samples into `out`.
void TraceRequest(const Run& run, const TraceContext& ctx, size_t q,
                  uint64_t rid, double wire_call_ms, const Answer& wire,
                  int root, TraceLog* log, Samples* out, Gate* gate) {
  const WorkloadSpec& w = *run.workload;
  const bool tbq = w.mode == QueryMode::kTbq;

  int span = log->Begin("api.decode", root, rid);
  kgsearch::Result<kgsearch::QueryRequest> request =
      kgsearch::DecodeQueryRequestJson(run.request_lines[q]);
  log->End(span);
  (*out)["api.decode_us"].push_back(log->Ms(span) * 1e3);
  if (!request.ok()) {
    gate->Defect("request document does not decode");
    return;
  }

  // One untimed call first. The wire request ran on a pool thread whose
  // caches hold the engine's working set, and this thread's do not; timed
  // cold, the session call would carry that difference into api.session_ms
  // and the stage-sum residual (about -10% of the wire call on sgq_10k).
  (void)ctx.session->Query(request.ValueOrDie());
  const int session_span = log->Begin("api.session", root, rid);
  kgsearch::Result<kgsearch::QueryResponse> response =
      ctx.session->Query(request.ValueOrDie());
  log->End(session_span);
  const Answer session_answer = response.ok()
                                    ? FromResponse(response.ValueOrDie())
                                    : FromStatus(response.status());
  if (response.ok()) {
    span = log->Begin("api.encode", root, rid);
    const std::string encoded =
        kgsearch::EncodeQueryResponseJson(response.ValueOrDie());
    log->End(span);
    (*out)["api.encode_us"].push_back(log->Ms(span) * 1e3);
  }

  // The snapshot the service, engine and replay run against: the mirror's
  // latest epoch on ingest runs (the server's too, as every commit is
  // acknowledged before the next request), the base graph otherwise.
  std::shared_ptr<const kgsearch::DeltaSnapshot> pinned =
      ctx.overlay != nullptr ? ctx.overlay->Snapshot() : nullptr;
  const kgsearch::GraphView view(ctx.graph, pinned.get());
  const kgsearch::QueryGraph& query = run.mix[q].query;
  const kgsearch::RequestOptions& wire_options =
      request.ValueOrDie().options;

  Answer service_answer, engine_answer;
  const int service_span = log->Begin("service.query", root, rid);
  int engine_span = -1;
  if (tbq) {
    kgsearch::TimeBoundedOptions o =
        kgsearch::ToTimeBoundedOptions(wire_options);
    o.view = &view;
    auto r = ctx.service->QueryTimeBounded(query, o);
    log->End(service_span);
    engine_span = log->Begin("core.engine", root, rid);
    o.executor = ctx.service->executor();
    auto e = ctx.service->tbq_engine().Query(query, o);
    log->End(engine_span);
    service_answer =
        r.ok() ? FromTbqResult(r.ValueOrDie()) : FromStatus(r.status());
    engine_answer =
        e.ok() ? FromTbqResult(e.ValueOrDie()) : FromStatus(e.status());
  } else {
    kgsearch::EngineOptions o = kgsearch::ToEngineOptions(wire_options);
    o.view = &view;
    auto r = ctx.service->Query(query, o);
    log->End(service_span);
    engine_span = log->Begin("core.engine", root, rid);
    o.executor = ctx.service->executor();
    auto e = ctx.service->sgq_engine().Query(query, o);
    log->End(engine_span);
    service_answer =
        r.ok() ? FromQueryResult(r.ValueOrDie()) : FromStatus(r.status());
    engine_answer =
        e.ok() ? FromQueryResult(e.ValueOrDie()) : FromStatus(e.status());
  }

  double calibrate_ms = 0.0;
  if (tbq) {
    span = log->Begin("core.calibrate", root, rid);
    (void)kgsearch::TbqEngine::CalibrateAssemblyCostMicros(
        kgsearch::SystemClock::Default());
    log->End(span);
    calibrate_ms = log->Ms(span);
    (*out)["core.tbq_calibrate_ms"].push_back(calibrate_ms);
  }

  // The serial replay: on SGQ workloads the engine's own pipeline; on
  // tbq_100k the exact SGQ search of the same query (TBQ's searches stop
  // on wall time and cannot be replayed), which is also its recall
  // reference.
  ReplayCounts counts;
  const int replay_span = log->Begin("core.replay", root, rid);
  kgsearch::EngineOptions replay_options =
      kgsearch::ToEngineOptions(wire_options);
  const Answer replayed =
      ReplaySgq(ctx.service->sgq_engine(), query, replay_options, view, log,
                replay_span, rid, &counts);
  log->End(replay_span);

  // Gate: every in-process answer agrees with the wire's status, and on SGQ
  // the wire, session, service, engine and replay answers, all at one
  // epoch, are one answer.
  for (const Answer* a : std::initializer_list<const Answer*>{
           &session_answer, &service_answer, &engine_answer, &replayed}) {
    if (a->code != wire.code) {
      gate->Defect("traced call status " + a->code + " vs wire " + wire.code);
      return;
    }
  }
  if (!wire.ok()) return;  // resolution failures: no stages to account
  if (!tbq) {
    if (!wire.SameResult(replayed)) {
      gate->Defect(kgsearch::StrFormat(
          "wire answer at epoch %llu differs from the serial replay: %s",
          static_cast<unsigned long long>(view.epoch()),
          run.mix[q].description.c_str()));
      return;
    }
    if (!session_answer.SameResult(replayed) ||
        !service_answer.SameResult(replayed) ||
        !engine_answer.SameResult(replayed) ||
        !SameStats(engine_answer.stats, replayed.stats)) {
      gate->Defect("serial replay differs from the engine: " +
                   run.mix[q].description);
      return;
    }
  } else {
    for (const Answer* a : std::initializer_list<const Answer*>{
             &session_answer, &service_answer, &engine_answer}) {
      const std::string defect =
          CheckWellFormed(*a, view.NumNodes());
      if (!defect.empty()) gate->Defect("traced TBQ answer: " + defect);
    }
  }

  // Stage spans of the replay, by name.
  double decompose = 0, resolve = 0, weights = 0, astar = 0, ta = 0;
  for (size_t i = static_cast<size_t>(replay_span) + 1;
       i < log->spans().size(); ++i) {
    const Span& s = log->spans()[i];
    const double ms = static_cast<double>(s.duration_ns()) / 1e6;
    const std::string& n = s.name;
    if (n == "core.decompose") decompose += ms;
    else if (n == "match.resolve") resolve += ms;
    else if (n == "embedding.weights") weights += ms;
    else if (n == "core.astar") astar += ms;
    else if (n == "core.ta") ta += ms;
  }
  const double session_ms = log->Ms(session_span);
  const double service_ms = log->Ms(service_span);
  const double engine_ms = log->Ms(engine_span);
  // Serial stages of the engine call: the whole SGQ pipeline, or on TBQ the
  // stages before its time-bounded searches (decompose, resolve, calibrate).
  const double stages = tbq ? decompose + resolve + calibrate_ms
                            : decompose + resolve + astar + ta;
  const double server_self = wire_call_ms - wire.total_ms;
  const double session_self = session_ms - service_ms;
  const double service_self = service_ms - engine_ms;
  const double engine_self = engine_ms - stages;
  const StageSum sum =
      Reconcile(wire_call_ms, {server_self, session_self, service_self,
                               engine_self, stages});

  Samples& o = *out;
  o["server.wire_ms"].push_back(server_self);
  o["api.session_ms"].push_back(session_self);
  o["service.self_ms"].push_back(service_self);
  o["core.engine_self_ms"].push_back(engine_self);
  o["core.decompose_us"].push_back(decompose * 1e3);
  o["core.subqueries"].push_back(static_cast<double>(counts.subqueries));
  o["core.astar_ms"].push_back(astar);
  o["core.astar_pops"].push_back(static_cast<double>(counts.pops));
  o["core.astar_expanded"].push_back(static_cast<double>(counts.expanded));
  o["core.astar_pruned_tau"].push_back(static_cast<double>(counts.pruned_tau));
  o["core.astar_pruned_visited"].push_back(
      static_cast<double>(counts.pruned_visited));
  o["core.astar_materialized"].push_back(
      static_cast<double>(counts.materialized));
  if (counts.pops > 0) {
    o["core.astar_ns_per_pop"].push_back(astar * 1e6 /
                                         static_cast<double>(counts.pops));
  }
  o["sum.pops"].push_back(static_cast<double>(counts.pops));
  o["sum.goals"].push_back(static_cast<double>(counts.goals));
  o["sum.retry_rounds"].push_back(static_cast<double>(counts.retry_rounds));
  o["sum.ta_calls"].push_back(static_cast<double>(counts.ta_calls));
  o["sum.ta_early"].push_back(static_cast<double>(counts.ta_early));
  o["core.ta_us"].push_back(ta * 1e3);
  o["core.ta_sorted_accesses"].push_back(
      static_cast<double>(counts.ta_sorted_accesses));
  o["match.resolve_us"].push_back(resolve * 1e3);
  o["match.start_candidates"].push_back(
      static_cast<double>(counts.start_candidates));
  o["embedding.weights_us"].push_back(weights * 1e3);
  o["trace.residual_ms"].push_back(sum.residual_ms);
  o["trace.residual_share"].push_back(sum.residual_share);
  o["trace.replay_glue_us"].push_back(
      static_cast<double>(SelfTimeNs(log->spans(),
                                     static_cast<size_t>(replay_span))) /
      1e3);
  o["trace.wire_call_ms"].push_back(wire_call_ms);
}

/// Drives the closed-loop window from this thread, one query request in
/// flight at a time, so the process CPU time that passes during a call is
/// that request's. Without `batches` the window lasts `seconds`. With them,
/// batch b (from `*next_batch` on) is committed once (b + 1) ·
/// kQueriesPerBatch queries have completed, so every query's epoch is known;
/// the window ends when the last batch is acknowledged, and reaching the cap
/// first is a gate defect. With `trace`, every request is also traced, and
/// every commit mirrored into the trace's overlay.
WindowResult RunWindow(Run* run, const Batches* batches, size_t* next_batch,
                       const TraceContext* trace) {
  const WorkloadSpec& w = *run->workload;
  const bool ingest = batches != nullptr;
  // Answer ids must name a node of the graph as it stands at the window's
  // end (ingest-born nodes are answers too).
  const size_t num_nodes = ingest ? batches->stream.nodes_after.back()
                                  : run->bench->session->graph(kDataset)
                                        ->NumNodes();
  const double cap_s =
      run->args.seconds *
      (!ingest ? 1.0 : trace != nullptr ? kTracedCapFactor : kIngestCapFactor);
  kgsearch::DeltaOverlay* mirror = trace != nullptr ? trace->overlay : nullptr;
  std::vector<double>* commit_ms =
      trace != nullptr ? trace->commit_ms : nullptr;
  const size_t first_batch = *next_batch;

  WindowResult result;
  Gate& gate = run->gate;
  TraceLog log;
  RequestOrder order(run->mix.size(), run->args.seed, 0);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cap_s));
  for (uint64_t rid = 0;; ++rid) {
    if (ingest && result.latency_ms.size() ==
                      (*next_batch - first_batch + 1) * kQueriesPerBatch) {
      if (!Commit(run, *batches, *next_batch, true, mirror, commit_ms)) break;
      if (++*next_batch == batches->lines.size()) break;
    }
    if (Clock::now() >= deadline) {
      if (ingest) {
        gate.Defect(kgsearch::StrFormat(
            "ingest window reached its %.0f s cap at batch %zu of %zu", cap_s,
            *next_batch, batches->lines.size()));
      }
      break;
    }
    const size_t q = order.Next();
    const int root = trace ? log.Begin("request", -1, rid) : -1;
    const int call = trace ? log.Begin("server.call", root, rid) : -1;
    const double cpu0 = ProcessCpuMs();
    const Clock::time_point t0 = Clock::now();
    kgsearch::Result<std::string> line = run->client.Call(run->request_lines[q]);
    const double ms = Ms(Clock::now() - t0);
    const double cpu_ms = ProcessCpuMs() - cpu0;
    if (trace) log.End(call);
    ++gate.attempted;
    if (!line.ok()) {
      gate.Failed("Transport");
      break;  // the connection is gone
    }
    result.latency_ms.push_back(ms);
    result.cpu_ms.push_back(cpu_ms);
    Answer a = DecodeWireAnswer(line.ValueOrDie());
    const Answer& warm = run->warm[q];
    if (a.code != warm.code) {
      gate.Failed(a.code);
    } else if (a.ok()) {
      const std::string defect = CheckWellFormed(a, num_nodes);
      if (!defect.empty()) gate.Defect(defect);
      if (w.mode == QueryMode::kTbq) {
        result.tbq_answers.emplace_back(q, a);
      } else if (!ingest) {
        if (!a.SameResult(warm) || !SameStats(a.stats, warm.stats)) {
          gate.Defect("answer drift on " + run->mix[q].description);
        }
      } else {
        result.epoch_samples.push_back(
            EpochSample{static_cast<uint32_t>(q), run->epoch, a});
      }
    }
    if (trace) {
      TraceRequest(*run, *trace, q, rid, ms, a, root, &log, &result.layers,
                   &gate);
      log.End(root);
    }
  }
  result.seconds = Seconds(Clock::now() - start);
  if (trace) result.spans = log.spans();
  return result;
}

/// Commits the batches the window did not reach (on a read-only workload,
/// the whole stream), with no readers. With `timed` their acks join the run's
/// ack samples; `mirror` (may be null) also commits each into the
/// benchmark's own overlay.
void CommitRest(Run* run, const Batches& batches, size_t* next_batch,
                bool timed, kgsearch::DeltaOverlay* mirror,
                std::vector<double>* commit_ms) {
  for (; *next_batch < batches.lines.size(); ++*next_batch) {
    if (!Commit(run, batches, *next_batch, timed, mirror, commit_ms)) return;
  }
}

// ----- the reference side of the gate -----

/// Runs `fn(i)` for i in [0, n) on kReferenceThreads threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReferenceThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

struct Reference {
  /// Heap-held: the engine points into it, and a Reference moves.
  std::unique_ptr<kgsearch::DatasetSnapshot> built;
  std::unique_ptr<kgsearch::SgqEngine> engine;
  std::vector<Answer> epoch0;  ///< per distinct query
};

kgsearch::Result<Reference> BuildReference(const Run& run) {
  kgsearch::Result<kgsearch::DatasetSnapshot> built =
      kgsearch::BuildScaleKgInMemory(run.spec);
  KG_RETURN_NOT_OK(built.status());
  Reference ref;
  ref.built = std::make_unique<kgsearch::DatasetSnapshot>(
      std::move(built).ValueOrDie());
  ref.engine = std::make_unique<kgsearch::SgqEngine>(
      ref.built->graph.get(), ref.built->space.get(), &ref.built->library);
  ref.epoch0.resize(run.mix.size());
  ParallelFor(run.mix.size(), [&](size_t q) {
    ref.epoch0[q] = ReferenceAnswer(*ref.engine, run.mix[q].query, nullptr);
  });
  return ref;
}

/// Warm answers (epoch 0) against the reference: statuses always, and on
/// SGQ workloads ids, scores and counters bit for bit.
void CheckWarm(Run* run, const Reference& ref) {
  const bool tbq = run->workload->mode == QueryMode::kTbq;
  for (size_t q = 0; q < run->mix.size(); ++q) {
    const Answer& got = run->warm[q];
    const Answer& want = ref.epoch0[q];
    if (got.code != want.code) {
      run->gate.Failed(got.code);
      continue;
    }
    if (!got.ok()) continue;  // the reference's own status: answered
    if (tbq) {
      const std::string defect =
          CheckWellFormed(got, ref.built->graph->NumNodes());
      if (!defect.empty()) run->gate.Defect("warm TBQ answer: " + defect);
    } else if (!got.SameResult(want) || !SameStats(got.stats, want.stats)) {
      run->gate.Defect("answer differs from the serial reference: " +
                       run->mix[q].description);
    }
  }
}

/// Ingest window answers whose epoch is known exactly, against the serial
/// reference at that epoch: a DeltaOverlay over the in-memory build,
/// committed batch by batch. Returns the recall tally of the checked ones.
RecallTally CheckEpochSamples(Run* run, const Reference& ref,
                              const Batches& batches,
                              std::vector<EpochSample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const EpochSample& a, const EpochSample& b) {
              return a.epoch != b.epoch ? a.epoch < b.epoch
                                        : a.query < b.query;
            });
  kgsearch::DeltaOverlay overlay(ref.built->graph.get());
  RecallTally recall;
  uint64_t epoch = 0;
  size_t i = 0;
  while (i < samples.size()) {
    const uint64_t e = samples[i].epoch;
    while (epoch < e) {
      kgsearch::Result<uint64_t> r =
          overlay.Commit(ToMutationBatch(batches.stream.batches[epoch]));
      if (!r.ok()) {
        run->gate.Defect("reference overlay rejects batch " +
                         std::to_string(epoch));
        return recall;
      }
      ++epoch;
    }
    size_t j = i;
    while (j < samples.size() && samples[j].epoch == e) ++j;
    // Distinct queries at this epoch, answered once each.
    std::vector<size_t> firsts;
    for (size_t k = i; k < j; ++k) {
      if (k == i || samples[k].query != samples[k - 1].query) {
        firsts.push_back(k);
      }
    }
    std::shared_ptr<const kgsearch::DeltaSnapshot> snapshot =
        overlay.Snapshot();
    const kgsearch::GraphView view(ref.built->graph.get(), snapshot.get());
    std::vector<Answer> want(firsts.size());
    ParallelFor(firsts.size(), [&](size_t f) {
      want[f] = ReferenceAnswer(*ref.engine,
                                run->mix[samples[firsts[f]].query].query,
                                &view);
    });
    size_t f = 0;
    for (size_t k = i; k < j; ++k) {
      if (f + 1 < firsts.size() && firsts[f + 1] == k) ++f;
      const Answer& got = samples[k].answer;
      if (!got.SameResult(want[f])) {
        run->gate.Defect(kgsearch::StrFormat(
            "answer at epoch %llu differs from the serial reference: %s",
            static_cast<unsigned long long>(e),
            run->mix[samples[k].query].description.c_str()));
      }
      recall.Add(got.ids, want[f].ids);
    }
    i = j;
  }
  return recall;
}

// ----- output -----

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

JsonValue Provenance(const Run& run) {
  JsonValue p = JsonValue::Object();
  p.Set("source", JsonValue::String(run.args.source));
  p.Set("compiler", JsonValue::String(CompilerId()));
  p.Set("build_type", JsonValue::String(PERFBENCH_BUILD_TYPE));
  p.Set("kernel_backend", JsonValue::String(kgsearch::simd::KernelBackend()));
  p.Set("nproc", JsonValue::Uint(std::thread::hardware_concurrency()));
  p.Set("dataset_nodes", JsonValue::Uint(run.spec.num_nodes));
  p.Set("dataset_edges", JsonValue::Uint(run.base_edges));
  p.Set("workload", JsonValue::String(run.workload->name));
  p.Set("workload_seed", JsonValue::Uint(run.args.seed));
  p.Set("graph_seed", JsonValue::Uint(kGraphSeed));
  p.Set("distinct_queries", JsonValue::Uint(run.mix.size()));
  p.Set("client_connections", JsonValue::Uint(1));
  p.Set("writer_connections",
        JsonValue::Uint(run.workload->ingest_under_load ? 1 : 0));
  p.Set("pool_threads", JsonValue::Uint(kPoolThreads));
  p.Set("loop", JsonValue::String("closed"));
  p.Set("timings", JsonValue::String("process CPU time"));
  p.Set("seconds", JsonValue::Number(run.args.seconds));
  p.Set("trace", JsonValue::Bool(run.args.trace));
  const CpuTimes now = ReadCpuTimes();
  const uint64_t ticks = now.total - run.cpu_at_start.total;
  p.Set("cpu_steal_share",
        JsonValue::Number(ticks == 0 ? 0.0
                                     : static_cast<double>(
                                           now.steal - run.cpu_at_start.steal) /
                                           static_cast<double>(ticks)));
  return p;
}

void PrintGate(const Gate& gate) {
  std::printf("gate: attempted %zu, failed %zu, defects %zu\n",
              gate.attempted, gate.failed(), gate.defect_count);
  for (const auto& [code, count] : gate.failed_by_code) {
    std::printf("  failed %-20s %zu\n", code.c_str(), count);
  }
  for (const std::string& d : gate.defects) {
    std::printf("  defect: %s\n", d.c_str());
  }
}

// ----- the two modes -----

void Untraced(Run* run, Metrics* metrics) {
  const WorkloadSpec& w = *run->workload;
  const auto make_batches = [run] {
    return MakeBatches(run->spec, run->spec.num_nodes, run->base_edges,
                       kWindowBatches, run->args.seed);
  };
  // A read-only workload makes its stream after the peak RSS is read.
  Batches batches = w.ingest_under_load ? make_batches() : Batches();
  size_t next_batch = 0;
  WindowResult window = RunWindow(
      run, w.ingest_under_load ? &batches : nullptr, &next_batch, nullptr);
  const size_t in_window_batches = next_batch;
  const double rss_mb = PeakRssMb();

  // The read-only workloads' ingest measurement: after their window, the
  // same kind of stream as ingest_100k's, committed between queries (not
  // timed as queries; TBQ answers are checked for form only), in passes on
  // fresh servers from the same kgpack until kIngestPhaseSeconds have
  // passed. The acks of all passes are pooled.
  std::vector<EpochSample> ingest_samples;
  if (!w.ingest_under_load) {
    batches = make_batches();
    const Clock::time_point phase_start = Clock::now();
    for (size_t pass = 0;; ++pass) {
      if (pass > 0) {
        const kgsearch::Status restarted = StartServing(run);
        if (!restarted.ok()) {
          run->gate.Defect("restart: " + restarted.ToString());
          return;
        }
        next_batch = 0;
      }
      WindowResult phase = RunWindow(run, &batches, &next_batch, nullptr);
      for (EpochSample& e : phase.epoch_samples) {
        ingest_samples.push_back(std::move(e));
      }
      if (next_batch < batches.lines.size() ||
          Seconds(Clock::now() - phase_start) >= kIngestPhaseSeconds) {
        break;
      }
    }
  }
  // Batches a window cut by its cap did not reach (already a gate defect),
  // so the checks below still apply.
  CommitRest(run, batches, &next_batch, false, nullptr, nullptr);
  CheckCounts(run, batches.stream.nodes_after.back(),
              batches.stream.edges_after.back(), "after ingest");

  kgsearch::Result<Reference> ref = BuildReference(*run);
  if (!ref.ok()) {
    run->gate.Defect("reference build: " + ref.status().ToString());
    return;
  }
  CheckWarm(run, ref.ValueOrDie());

  RecallTally recall;
  size_t checked_at_epoch = 0;
  if (w.mode == QueryMode::kTbq) {
    for (const auto& [q, a] : window.tbq_answers) {
      recall.Add(a.ids, ref.ValueOrDie().epoch0[q].ids);
    }
  } else if (w.ingest_under_load) {
    recall = CheckEpochSamples(run, ref.ValueOrDie(), batches,
                               std::move(window.epoch_samples));
    checked_at_epoch = recall.requests();
  } else {
    checked_at_epoch = CheckEpochSamples(run, ref.ValueOrDie(), batches,
                                         std::move(ingest_samples))
                           .requests();
    // Every window answer equals its warm answer (checked in the loop),
    // and the warm answers equal the reference (CheckWarm).
    for (size_t q = 0; q < run->mix.size(); ++q) {
      recall.Add(run->warm[q].ids, ref.ValueOrDie().epoch0[q].ids);
    }
  }

  std::printf("window: %zu requests in %.3f s; ingest batches in window %zu "
              "of %zu; %zu ingest acks timed\n",
              window.latency_ms.size(), window.seconds, in_window_batches,
              batches.lines.size(), run->ack_cpu_ms.size());
  if (checked_at_epoch > 0) {
    std::printf("answers checked against the reference at their epoch: %zu\n",
                checked_at_epoch);
  }
  if (!run->ack_cpu_ms.empty()) {
    std::printf("ingest acks (CPU ms): p10 %.4f p25 %.4f p50 %.4f p75 %.4f "
                "p90 %.4f\n",
                NearestRank(run->ack_cpu_ms, 0.10)->value,
                NearestRank(run->ack_cpu_ms, 0.25)->value,
                NearestRank(run->ack_cpu_ms, 0.50)->value,
                NearestRank(run->ack_cpu_ms, 0.75)->value,
                NearestRank(run->ack_cpu_ms, 0.90)->value);
  }
  metrics->Add("setup_s", Median(run->setup_cpu_s), "s");
  metrics->Add("p50_cpu_ms", Median(window.cpu_ms), "ms");
  if (auto p95 = TailPercentile(window.cpu_ms, 0.95)) {
    std::printf("  (p95 of %zu samples, %zu beyond)\n", p95->samples,
                p95->beyond);
    metrics->Add("p95_cpu_ms", p95->value, "ms");
  } else {
    metrics->Absent("p95_cpu_ms", "fewer than 10 samples beyond the 95th");
  }
  metrics->Add("queries_per_cpu_s",
               1e3 * static_cast<double>(window.cpu_ms.size()) /
                   Sum(window.cpu_ms),
               "1/s");
  if (auto r = recall.value()) {
    metrics->Add("recall", *r, "1");
  } else {
    metrics->Absent("recall", "no answerable request");
  }
  if (!run->ack_cpu_ms.empty()) {
    metrics->Add("ingest_p50_cpu_ms", Median(run->ack_cpu_ms), "ms");
  } else {
    metrics->Absent("ingest_p50_cpu_ms", "no ingest batch acknowledged");
  }
  metrics->Add("rss_mb", rss_mb, "MB");

  // The same calls on the wall clock: no bound, as they follow the host.
  const std::optional<Percentile> wall_p95 =
      NearestRank(window.latency_ms, 0.95);
  run->wall.Set("setup_s", JsonValue::Number(Median(run->setup_s)));
  run->wall.Set("p50_ms", JsonValue::Number(Median(window.latency_ms)));
  run->wall.Set("p95_ms", JsonValue::Number(wall_p95 ? wall_p95->value : 0));
  run->wall.Set("throughput_qps",
                JsonValue::Number(
                    static_cast<double>(window.latency_ms.size()) /
                    window.seconds));
  run->wall.Set("ingest_p50_ms", JsonValue::Number(Median(run->ack_ms)));
  std::printf("wall clock (no bound):");
  for (const auto& [name, value] : run->wall.members()) {
    std::printf(" %s %.6g", name.c_str(), value.number_value());
  }
  std::printf("\n");
}

/// GraphView::Neighbors over a fixed seeded node sample: the median over
/// kNeighborSweeps sweeps of the mean ns per call.
double NeighborsNs(const kgsearch::GraphView& view, uint64_t seed) {
  kgsearch::FastRng rng(kgsearch::MixSeed(seed, 0x9e1b));
  std::vector<kgsearch::NodeId> sample(kNeighborSample);
  for (kgsearch::NodeId& u : sample) {
    u = static_cast<kgsearch::NodeId>(
        rng.UniformIndex(view.base().NumNodes()));
  }
  std::vector<double> per_call;
  size_t sink = 0;
  for (size_t s = 0; s < kNeighborSweeps; ++s) {
    const Clock::time_point t0 = Clock::now();
    for (kgsearch::NodeId u : sample) {
      const auto adj = view.Neighbors(u);
      sink += adj.size() + (adj.empty() ? 0 : adj.front().neighbor);
    }
    per_call.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 t0)
                .count()) /
        static_cast<double>(sample.size()));
  }
  if (sink == 42) std::printf(" ");  // keeps the reads observable
  return Median(per_call);
}

/// Rate of `part` in `whole`, or 0 when nothing was counted.
double Rate(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

void Traced(Run* run, Metrics* metrics) {
  const WorkloadSpec& w = *run->workload;

  // Exact-repeat counters: totals of the warm pass (one request per
  // distinct query, so the same work in every run of a seed).
  uint64_t expanded_total = 0, subqueries_total = 0, ta_total = 0;
  for (const Answer& a : run->warm) {
    expanded_total += a.stats.expanded;
    subqueries_total += a.stats.subqueries;
    ta_total += a.stats.ta_sorted_accesses;
  }

  // The workload's ingest stream: on ingest_100k committed in both windows
  // from the same base graph, elsewhere after the traced window.
  const Batches batches = MakeBatches(run->spec, run->spec.num_nodes,
                                      run->base_edges, kWindowBatches,
                                      run->args.seed);
  const Batches* window_batches = w.ingest_under_load ? &batches : nullptr;

  // 1. An untraced window, for the tracing overhead. Cache hit rates come
  // from it: wire traffic only, while the traced window below repeats every
  // request in-process.
  const kgsearch::Result<WireStats> before = FetchWireStats(&run->writer);
  size_t next_batch = 0;
  WindowResult untraced = RunWindow(run, window_batches, &next_batch, nullptr);
  const kgsearch::Result<WireStats> after = FetchWireStats(&run->writer);
  std::vector<EpochSample> epoch_samples = std::move(untraced.epoch_samples);
  if (w.ingest_under_load) {
    CommitRest(run, batches, &next_batch, false, nullptr, nullptr);
    CheckCounts(run, batches.stream.nodes_after.back(),
                batches.stream.edges_after.back(), "after the first stream");
    // A fresh server from the same kgpack, warmed like the first, so the
    // traced window commits the same stream over the same base graph.
    const kgsearch::Status restarted = StartServing(run);
    if (!restarted.ok()) {
      run->gate.Defect("restart: " + restarted.ToString());
      return;
    }
    const std::vector<Answer> rewarm = WarmPass(run);
    for (size_t q = 0; q < rewarm.size(); ++q) {
      if (rewarm[q].code != run->warm[q].code) {
        run->gate.Failed(rewarm[q].code);
      } else if (!rewarm[q].SameResult(run->warm[q]) ||
                 !SameStats(rewarm[q].stats, run->warm[q].stats)) {
        run->gate.Defect("fresh server's warm answer differs: " +
                         run->mix[q].description);
      }
    }
    next_batch = 0;
  }
  kgsearch::KgSession* session = run->bench->session.get();

  // 2. The traced window. The benchmark's own overlay over the dataset's
  // base graph mirrors every commit: on ingest_100k those of the window,
  // elsewhere the stream after it.
  TraceContext ctx;
  ctx.session = session;
  ctx.service = session->service(kDataset);
  ctx.graph = session->graph(kDataset);
  kgsearch::DeltaOverlay mirror(ctx.graph);
  std::vector<double> commit_ms;
  ctx.overlay = w.ingest_under_load ? &mirror : nullptr;
  ctx.commit_ms = &commit_ms;
  WindowResult traced = RunWindow(run, window_batches, &next_batch, &ctx);
  for (EpochSample& e : traced.epoch_samples) {
    epoch_samples.push_back(std::move(e));
  }

  // 3. The rest of the stream (all of it on a read-only workload),
  // mirrored, then the
  // Neighbors sweeps on the base view and the final pinned snapshot.
  CommitRest(run, batches, &next_batch, false, &mirror, &commit_ms);
  CheckCounts(run, batches.stream.nodes_after.back(),
              batches.stream.edges_after.back(), "after the traced stream");
  std::shared_ptr<const kgsearch::DeltaSnapshot> final_delta =
      mirror.Snapshot();
  const uint64_t delta_triples =
      final_delta ? final_delta->added.size() + final_delta->retracted.size()
                  : 0;
  if (delta_triples != batches.stream.delta_after.back()) {
    run->gate.Defect(kgsearch::StrFormat(
        "mirror delta has %llu triples, the stream model %llu",
        static_cast<unsigned long long>(delta_triples),
        static_cast<unsigned long long>(batches.stream.delta_after.back())));
  }
  const double neighbors_ns =
      NeighborsNs(kgsearch::GraphView(*ctx.graph), run->args.seed);
  const double neighbors_delta_ns = NeighborsNs(
      kgsearch::GraphView(ctx.graph, final_delta.get()), run->args.seed);

  // 4. TBQ counters: one TBQ pass over the distinct queries (the T of
  // tbq_100k) on one connection, with no other load.
  std::vector<std::pair<double, Answer>> tbq;  // (wire ms, answer)
  const int64_t bound_us = AllWorkloads()[1].time_bound_micros;
  {
    WorkloadSpec as_tbq = w;
    as_tbq.mode = QueryMode::kTbq;
    as_tbq.time_bound_micros = bound_us;
    for (size_t q = 0; q < run->mix.size(); ++q) {
      const std::string line = kgsearch::EncodeQueryRequestJson(
          MakeRequest(as_tbq, run->mix[q].query));
      const Clock::time_point t0 = Clock::now();
      kgsearch::Result<std::string> got = run->client.Call(line);
      const double ms = Ms(Clock::now() - t0);
      ++run->gate.attempted;
      if (!got.ok()) {
        run->gate.Failed("Transport");
        break;
      }
      Answer a = DecodeWireAnswer(got.ValueOrDie());
      if (a.code != run->warm[q].code) run->gate.Failed(a.code);
      if (!a.ok()) continue;
      const std::string defect =
          CheckWellFormed(a, batches.stream.nodes_after.back());
      if (!defect.empty()) run->gate.Defect("TBQ pass answer: " + defect);
      tbq.emplace_back(ms, std::move(a));
    }
  }

  // 5. Compaction of the final delta, the whole stream: kg.compact_s, a
  // background cost.
  const Clock::time_point compact_start = Clock::now();
  const kgsearch::Status compacted = session->CompactDataset(kDataset);
  const double compact_s = Seconds(Clock::now() - compact_start);
  if (!compacted.ok()) {
    run->gate.Defect("compaction: " + compacted.ToString());
  }
  CheckCounts(run, batches.stream.nodes_after.back(),
              batches.stream.edges_after.back(), "after compaction");

  kgsearch::Result<Reference> ref = BuildReference(*run);
  if (!ref.ok()) {
    run->gate.Defect("reference build: " + ref.status().ToString());
    return;
  }
  CheckWarm(run, ref.ValueOrDie());
  if (w.ingest_under_load) {
    // Both windows' wire answers of a known epoch, against the reference.
    const RecallTally checked = CheckEpochSamples(
        run, ref.ValueOrDie(), batches, std::move(epoch_samples));
    std::printf("answers checked against the reference at their epoch: %zu\n", checked.requests());
  }

  // ----- report -----
  Samples& s = traced.layers;
  std::printf("traced window: %zu requests in %.3f s; untraced window %zu "
              "requests in %.3f s\n",
              traced.latency_ms.size(), traced.seconds,
              untraced.latency_ms.size(), untraced.seconds);
  const double wire_median = Median(s["trace.wire_call_ms"]);
  const double residual = Median(s["trace.residual_ms"]);
  const bool reconciled =
      std::fabs(residual) <= kResidualTolerance * wire_median;
  std::printf("stage sum: median wire call %.4f ms, median residual %.4f ms "
              "(%.2f%% of the wire call; tolerance %.0f%%): %s\n",
              wire_median, residual,
              wire_median > 0 ? 100.0 * residual / wire_median : 0.0,
              100.0 * kResidualTolerance,
              reconciled ? "within tolerance" : "OUTSIDE tolerance");
  if (!reconciled) {
    run->gate.Defect("stage-sum residual outside its tolerance");
  }

  // Per-request medians of the traced window.
  static const std::pair<const char*, const char*> kMedians[] = {
      {"server.wire_ms", "ms"},         {"api.decode_us", "us"},
      {"api.encode_us", "us"},          {"api.session_ms", "ms"},
      {"service.self_ms", "ms"},        {"core.decompose_us", "us"},
      {"core.subqueries", "count"},     {"core.astar_ms", "ms"},
      {"core.astar_pops", "count"},     {"core.astar_expanded", "count"},
      {"core.astar_pruned_tau", "count"},
      {"core.astar_pruned_visited", "count"},
      {"core.astar_materialized", "count"},
      {"core.astar_ns_per_pop", "ns"},  {"core.ta_us", "us"},
      {"core.ta_sorted_accesses", "count"},
      {"core.engine_self_ms", "ms"},    {"match.resolve_us", "us"},
      {"match.start_candidates", "count"},
      {"embedding.weights_us", "us"},   {"trace.residual_share", "1"},
      {"trace.replay_glue_us", "us"},
  };
  for (const auto& [name, unit] : kMedians) {
    metrics->Add(name, Median(s[name]), unit);
  }
  if (before.ok() && after.ok()) {
    const WireStats& b = before.ValueOrDie();
    const WireStats& a = after.ValueOrDie();
    const uint64_t d_hits = a.decomposition_hits - b.decomposition_hits;
    const uint64_t d_lookups =
        d_hits + (a.decomposition_misses - b.decomposition_misses);
    const uint64_t m_lookups = (a.matcher_hits - b.matcher_hits) +
                               (a.matcher_misses - b.matcher_misses);
    const uint64_t stale = a.matcher_stale - b.matcher_stale;
    metrics->Add("service.decomp_hit_rate",
                 Rate(d_hits, d_lookups), "1");
    metrics->Add("service.matcher_hit_rate",
                 Rate(a.matcher_hits - b.matcher_hits - stale, m_lookups), "1");
    metrics->Add("service.matcher_stale_rate", Rate(stale, m_lookups), "1");
  } else {
    for (const char* name :
         {"service.decomp_hit_rate", "service.matcher_hit_rate",
          "service.matcher_stale_rate"}) {
      metrics->Absent(name, "GET /stats failed");
    }
  }
  metrics->Add("core.astar_goal_ratio",
               Rate(static_cast<uint64_t>(Sum(s["sum.goals"])),
                    static_cast<uint64_t>(Sum(s["sum.pops"]))),
               "1");
  metrics->Add("core.retry_rounds",
               Sum(s["sum.retry_rounds"]) /
                   static_cast<double>(std::max<size_t>(
                       1, s["sum.retry_rounds"].size())),
               "count");
  metrics->Add("core.ta_early_stop_rate",
               Rate(static_cast<uint64_t>(Sum(s["sum.ta_early"])),
                    static_cast<uint64_t>(Sum(s["sum.ta_calls"]))),
               "1");
  // Calibration runs inside every TBQ request, so tbq_100k times it per
  // traced request; SGQ workloads time 64 standalone calls.
  std::vector<double>& calibrate = s["core.tbq_calibrate_ms"];
  for (size_t i = 0; calibrate.empty() && i < 64; ++i) {
    const Clock::time_point t0 = Clock::now();
    (void)kgsearch::TbqEngine::CalibrateAssemblyCostMicros(
        kgsearch::SystemClock::Default());
    calibrate.push_back(Ms(Clock::now() - t0));
  }
  metrics->Add("core.tbq_calibrate_ms", Median(calibrate), "ms");
  {
    std::vector<double> expanded, overshoot;
    size_t stopped = 0;
    for (const auto& [ms, a] : tbq) {
      expanded.push_back(static_cast<double>(a.stats.expanded));
      overshoot.push_back(ms - static_cast<double>(bound_us) / 1e3);
      stopped += a.stopped_by_time ? 1 : 0;
    }
    metrics->Add("core.tbq_expanded", Median(expanded), "count");
    metrics->Add("core.tbq_stopped_rate", Rate(stopped, tbq.size()), "1");
    if (auto p95 = TailPercentile(overshoot, 0.95)) {
      metrics->Add("core.tbq_overshoot_p95_ms", p95->value, "ms");
    } else {
      metrics->Absent("core.tbq_overshoot_p95_ms",
                      "fewer than 10 TBQ samples beyond the 95th");
    }
  }
  metrics->Add("kg.load_s", Median(run->load_s), "s");
  metrics->Add("kg.neighbors_ns", neighbors_ns, "ns");
  metrics->Add("kg.neighbors_delta_ns", neighbors_delta_ns, "ns");
  metrics->Add("kg.commit_ms", Median(commit_ms), "ms");
  {
    const size_t tenth = std::max<size_t>(1, commit_ms.size() / 10);
    const std::vector<double> head(commit_ms.begin(),
                                   commit_ms.begin() + tenth);
    const std::vector<double> tail(commit_ms.end() - tenth, commit_ms.end());
    metrics->Add("kg.commit_growth", Median(tail) / Median(head), "1");
  }
  metrics->Add("kg.delta_triples", static_cast<double>(delta_triples),
               "count");
  metrics->Add("kg.compact_s", compact_s, "s");
  metrics->Add("trace.overhead_p50_ms",
               Median(traced.latency_ms) - Median(untraced.latency_ms), "ms");
  metrics->Add("wire.expanded_total", static_cast<double>(expanded_total),
               "count");
  metrics->Add("wire.subqueries_total", static_cast<double>(subqueries_total),
               "count");
  metrics->Add("wire.ta_sorted_accesses_total", static_cast<double>(ta_total),
               "count");

  // Spans, written once the run is over.
  const std::string path = std::string(kWorkDir) + "/trace-" + w.name + "-s" +
                           std::to_string(run->args.seed) + ".jsonl";
  std::ofstream out(path);
  for (const Span& sp : traced.spans) {
    JsonValue j = JsonValue::Object();
    j.Set("request", JsonValue::Uint(sp.request));
    j.Set("name", JsonValue::String(sp.name));
    j.Set("start_ns", JsonValue::Int(sp.start_ns));
    j.Set("end_ns", JsonValue::Int(sp.end_ns));
    j.Set("parent", JsonValue::Int(sp.parent));
    out << j.Dump() << '\n';
  }
  std::printf("spans written to %s\n", path.c_str());
}

// ----- main -----

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--source <id>]\n"
               "workloads:");
  for (const WorkloadSpec& w : AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") args.seconds = std::atof(value.c_str());
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--source") args.source = value;
    else return std::nullopt;
  }
  if (argc % 2 == 0 || args.workload.empty() || !have_seed ||
      !(args.seconds > 0.0)) {
    return std::nullopt;
  }
  return args;
}

int Main(int argc, char** argv) {
  std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    Usage();
    return 2;
  }
  Run run;
  run.args = *args;
  run.workload = FindWorkload(args->workload);
  if (run.workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args->workload.c_str());
    Usage();
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  const Clock::time_point t0 = Clock::now();
  kgsearch::Status prepared = Prepare(&run);
  if (!prepared.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", prepared.ToString().c_str());
    return 1;
  }
  std::printf("%s seed %llu: %s run, %.1f s window\n",
              run.workload->name.c_str(),
              static_cast<unsigned long long>(run.args.seed),
              run.args.trace ? "traced" : "untraced", run.args.seconds);
  const Clock::time_point t1 = Clock::now();
  Metrics metrics;
  if (run.args.trace) {
    Traced(&run, &metrics);
  } else {
    Untraced(&run, &metrics);
  }
  std::printf("run time: %.1f s to prepare (generate, set up, warm), %.1f s "
              "for the windows and checks\n",
              Seconds(t1 - t0), Seconds(Clock::now() - t1));
  run.bench.reset();
  std::filesystem::remove(run.kgpack);

  PrintGate(run.gate);
  JsonValue record = JsonValue::Object();
  record.Set("provenance", Provenance(run));
  record.Set("metrics", metrics.json());
  if (!run.args.trace) record.Set("wall", run.wall);
  std::printf("record %s\n", record.Dump().c_str());

  const bool correct = run.gate.correct() && !metrics.any_absent();
  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(correct));
  result.Set("attempted", JsonValue::Uint(run.gate.attempted));
  result.Set("failed", JsonValue::Uint(run.gate.failed()));
  result.Set("metrics", metrics.json());
  std::printf("%s\n", result.Dump().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
