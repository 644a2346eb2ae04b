// Workload definitions and the answer model the correctness gate compares.
//
// A workload is a fixed scale_kg graph (spec seed 42, so the dataset is the
// same in every run) plus a seeded insight query mix, a seeded per-client
// request order, and a seeded ingest stream. The run seed changes which
// queries and batches are sent, never the graph.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/protocol.h"
#include "core/engine.h"
#include "core/time_bounded.h"
#include "gen/insight_workload.h"
#include "gen/scale_kg.h"
#include "util/status.h"

namespace perfbench {

inline constexpr const char* kDataset = "bench";
inline constexpr uint64_t kGraphSeed = 42;
inline constexpr size_t kTopK = 10;
inline constexpr size_t kPoolThreads = 2;

/// Distinct queries in every workload's insight mix.
inline constexpr size_t kMixQueries = 512;
/// ingest_100k: the query window is the ingest stream. Batch b is committed
/// once (b + 1) · kQueriesPerBatch queries have completed, so every query
/// runs at a known epoch, and the window ends when the last batch is
/// acknowledged, so every run measures the same work (576 queries while the
/// delta grows to ~10k triples; about 11 s on a 4-vCPU VM). The window is
/// capped at kIngestCapFactor · --seconds, kTracedCapFactor · --seconds when
/// traced (a traced request does about five times the work), and a window
/// that reaches its cap fails the run.
inline constexpr size_t kWindowBatches = 288;
inline constexpr size_t kQueriesPerBatch = 2;
inline constexpr double kIngestCapFactor = 3.0;
inline constexpr double kTracedCapFactor = 7.0;
/// Read-only workloads commit that stream after their window, in passes
/// until this many seconds have passed: one pass lasts 2–7 s, and the median
/// of so short a stretch follows the host's load of those seconds.
inline constexpr double kIngestPhaseSeconds = 8.0;

struct WorkloadSpec {
  std::string name;
  uint64_t nodes = 0;
  kgsearch::QueryMode mode = kgsearch::QueryMode::kSgq;
  /// TBQ response-time bound T (alert ratio stays at its default 0.8).
  int64_t time_bound_micros = 0;
  /// Ingest batches commit during the query window.
  bool ingest_under_load = false;
};

/// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// One answer as the gate sees it: a status code name ("OK" on success),
/// the ranked (id, score) list, and the engine counters the wire carries.
struct Answer {
  std::string code = "OK";
  std::vector<uint32_t> ids;
  std::vector<double> scores;
  kgsearch::ResponseStats stats;
  bool stopped_by_time = false;
  double total_ms = 0.0;  ///< the response's own timings.total_ms

  bool ok() const { return code == "OK"; }
  /// Status, ids and scores equal (counters and timings not compared).
  bool SameResult(const Answer& other) const {
    return code == other.code && ids == other.ids && scores == other.scores;
  }
};

/// Decodes a wire response line: a QueryResponse document or an
/// {"error":{...}} document. Undecodable text answers code "Transport".
Answer DecodeWireAnswer(const std::string& line);
Answer FromResponse(const kgsearch::QueryResponse& response);
Answer FromStatus(const kgsearch::Status& status);
/// The answer a serial SGQ engine gives, counters summed like the session's.
Answer FromQueryResult(const kgsearch::QueryResult& result);
Answer FromTbqResult(const kgsearch::TimeBoundedResult& result);

/// Well-formed ranked answers: at most k, scores non-increasing and finite,
/// ids below `num_nodes`. Empty string when well formed, else the defect.
std::string CheckWellFormed(const Answer& answer, size_t num_nodes);

/// The workload's distinct queries for `seed`.
std::vector<kgsearch::InsightQuery> BuildMix(const WorkloadSpec& workload,
                                             uint64_t seed);
kgsearch::QueryRequest MakeRequest(const WorkloadSpec& workload,
                                   const kgsearch::QueryGraph& query);

/// Client `client`'s request order: cycle after cycle through every query
/// index, each cycle a fresh seeded permutation.
class RequestOrder {
 public:
  RequestOrder(size_t num_queries, uint64_t seed, size_t client);
  size_t Next();

 private:
  std::vector<size_t> cycle_;
  size_t pos_ = 0;
  uint64_t seed_ = 0;
  uint64_t cycles_ = 0;
  void Reshuffle();
};

/// Serial exact SGQ answer for `query` (engine options as the wire request
/// implies, one thread). `view` null = the engine's base graph.
Answer ReferenceAnswer(const kgsearch::SgqEngine& engine,
                       const kgsearch::QueryGraph& query,
                       const kgsearch::GraphView* view);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
