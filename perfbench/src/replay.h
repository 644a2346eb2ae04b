// Tracing from the benchmark's own side: an in-memory span log, and a
// serial replay of SgqEngine's pipeline that records one span per stage.
//
// The replay calls the same public functions the engine does, in the same
// order and with the same arguments — DecomposeQuery, ResolveSubQuery per
// sub-query, AStarSearch per sub-query with the engine's budget-doubling
// retry rounds, AssembleTopK per round — so its answer must equal the
// engine's bit for bit, and its spans time the engine's own work. It also
// builds one SemanticWeights per sub-query (the object every AStarSearch
// call constructs first) to time that construction on its own; that span
// is outside the stage sum, because A* already pays for it.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "arith.h"
#include "core/engine.h"
#include "workload.h"

namespace perfbench {

/// Spans of one thread, kept in memory until the run ends.
class TraceLog {
 public:
  /// Opens a span now; returns its index (the `parent` of nested spans).
  int Begin(const char* name, int parent, uint64_t request) {
    spans_.push_back(Span{name, Now(), 0, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int index) { spans_[static_cast<size_t>(index)].end_ns = Now(); }
  /// Milliseconds of a closed span.
  double Ms(int index) const {
    return static_cast<double>(spans_[static_cast<size_t>(index)]
                                   .duration_ns()) /
           1e6;
  }
  const std::vector<Span>& spans() const { return spans_; }

  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::vector<Span> spans_;
};

/// What one serial replay did, summed over sub-queries and retry rounds.
struct ReplayCounts {
  size_t subqueries = 0;
  size_t retry_rounds = 0;
  uint64_t start_candidates = 0;
  uint64_t pops = 0;
  uint64_t expanded = 0;
  uint64_t pruned_tau = 0;
  uint64_t pruned_visited = 0;
  uint64_t goals = 0;
  uint64_t materialized = 0;
  uint64_t ta_calls = 0;
  uint64_t ta_early = 0;
  uint64_t ta_sorted_accesses = 0;
};

/// Replays SgqEngine::Query(query, options) serially against `view`, using
/// `engine`'s predicate space, transformation library and candidate cache.
/// Spans ("core.decompose", "match.resolve", "embedding.weights",
/// "core.astar", "core.ta") are children of `parent`.
Answer ReplaySgq(const kgsearch::SgqEngine& engine,
                 const kgsearch::QueryGraph& query,
                 const kgsearch::EngineOptions& options,
                 const kgsearch::GraphView& view, TraceLog* log, int parent,
                 uint64_t request, ReplayCounts* counts);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
