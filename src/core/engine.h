// SgqEngine: semantic-guided graph querying (Problem 1, Section V) and its
// response-time-bounded approximation (Problem 2, Section VI).
//
// Pipeline: decompose the query graph into sub-query path graphs (Eq. 1),
// run one A* semantic search per sub-query (multithreaded), and assemble
// final top-k matches at the pivot with the threshold algorithm. Both modes
// run this one pipeline; a stop policy decides when each search stops and
// which matches it keeps, and QueryOptions::mode picks it:
//  - optimal (QueryMode::kSgq): each search returns its best
//    max(budget_factor*k, 16) matches; the budget doubles and the round
//    re-runs while assembly yields fewer than k final matches.
//  - anytime (QueryMode::kTbq, Algorithms 2-3): each search collects
//    non-optimal match sets M̂i as matches are generated, until the
//    synchronized time estimator  T̂ = max{T_A*} + Σ|M̂i|·t  reaches the
//    alert threshold T·r%. Quality is monotone in T (Lemmas 6-7,
//    Theorem 4): given enough time, M̂ = M.
#ifndef KGSEARCH_CORE_ENGINE_H_
#define KGSEARCH_CORE_ENGINE_H_

#include <vector>

#include "core/astar_search.h"
#include "core/query_graph.h"
#include "core/ta_assembly.h"
#include "embedding/predicate_space.h"
#include "match/node_matcher.h"
#include "util/cancel.h"
#include "util/clock.h"

namespace kgsearch {

class ThreadPool;  // util/thread_pool.h; only a pointer is stored here
class StopPolicy;  // engine.cc; the mode-specific part of the pipeline

/// Which stop policy answers a query.
enum class QueryMode {
  kSgq,  ///< optimal semantic-guided query (Problem 1)
  kTbq,  ///< time-bounded approximate query (Problem 2)
};

/// The per-query knobs, each declared once with its default. The engine
/// reads them through QueryOptions and the wire carries them as
/// RequestOptions (api/protocol.h). The SGQ-only knobs do nothing in TBQ
/// mode and the TBQ-only knobs do nothing in SGQ mode.
struct QueryKnobs {
  // Both modes.
  size_t k = 10;           ///< final top-k
  double tau = 0.8;        ///< pss threshold τ
  size_t n_hat = 4;        ///< desired hops per query edge n̂
  PivotStrategy pivot_strategy = PivotStrategy::kMinCost;
  uint64_t seed = 42;      ///< used by kRandom pivot selection
  /// Partial-path de-duplication discipline (Algorithm 1 vs. exact states).
  DedupMode dedup = DedupMode::kPaperNodeVisited;
  /// Safety valve per A* search; 0 = unlimited.
  uint64_t max_expansions = 4'000'000;
  /// Pops between polls inside each A* search: of the deadline and
  /// cancellation token (the abort latency knob; only consulted when one is
  /// set) and of the anytime time estimator.
  size_t stop_check_interval = 64;
  // SGQ only.
  /// Collect budget_factor*k matches per sub-query before assembly (the
  /// paper's "more than k matches collected for each gi" remark).
  size_t budget_factor = 3;
  /// When assembly yields < k final matches, re-run sub-queries with a
  /// doubled budget up to this many extra rounds.
  size_t max_retry_rounds = 2;
  /// Sub-query matches emitted per distinct target node (> 1 needs
  /// kExactState); raise when answers are read off a non-pivot query node.
  size_t matches_per_target = 1;
  // TBQ only.
  /// User-specified time bound T, in microseconds.
  int64_t time_bound_micros = 100'000;
  /// Alert ratio r% (the paper uses 80%): assembly launches when the
  /// estimated total time reaches time_bound * alert_ratio.
  double alert_ratio = 0.8;
  /// Empirical per-match TA assembly cost t, in microseconds. <= 0 means
  /// "calibrate via a simulated assembly" (the paper's approach).
  double per_match_assembly_micros = -1.0;
  /// Cap on matches retained per sub-query (best kept); 0 = unlimited.
  size_t match_cap = 0;

  bool operator==(const QueryKnobs&) const = default;
};

/// One query call: the knobs, the mode that picks the stop policy, and the
/// per-call context below, which the wire does not carry.
struct QueryOptions : QueryKnobs {
  QueryMode mode = QueryMode::kSgq;
  size_t threads = 0;      ///< 0 = one per sub-query (ignored with executor)
  /// Non-owning shared executor. When set, sub-query searches run as a
  /// caller-participating batch on this pool (RunOnPool) instead of
  /// spawning per-query threads; many concurrent queries can then share one
  /// process-wide pool. Optimal results are identical either way: each
  /// sub-query search is deterministic and writes to its own slot. Under a
  /// tight time bound the anytime stop decision depends on real
  /// interleaving, so only generously-bounded runs are reproducible across
  /// executors.
  ThreadPool* executor = nullptr;
  /// Absolute per-request deadline on the engine's clock (the scale of
  /// Clock::NowMicros); 0 = none. Callers with a relative budget convert
  /// via DeadlineFromNowMs at admission time, so queue wait counts. An
  /// expired query aborts between node expansions with kDeadlineExceeded
  /// and no result — unlike time_bound_micros, the paper's soft budget,
  /// which stops searches gracefully and assembles a partial answer.
  int64_t deadline_micros = 0;
  /// Cooperative cancellation; non-owning, may be null, must outlive the
  /// query. Cancel() makes the query abort between node expansions with
  /// kCancelled. A deadline/cancel that never fires leaves the search
  /// bit-identical to an unconstrained run.
  const CancelToken* cancel = nullptr;
  /// Pinned snapshot view to run the query against (live-ingest serving:
  /// base graph + one delta epoch). Null = the engine's own base graph.
  /// Non-owning; the caller keeps the view (and the snapshot it pins)
  /// alive for the duration of the call. The view's base must be the
  /// engine's graph — the engine's predicate space and matcher library
  /// are interpreted against it.
  const GraphView* view = nullptr;
};

/// The optimal (SGQ) preset, QueryOptions as default-constructed.
using EngineOptions = QueryOptions;

/// The time-bounded (TBQ) preset: QueryOptions with mode kTbq.
struct TimeBoundedOptions : QueryOptions {
  TimeBoundedOptions() { mode = QueryMode::kTbq; }
};

/// Everything produced by one query execution.
struct QueryResult {
  std::vector<FinalMatch> matches;       ///< descending score
  Decomposition decomposition;
  std::vector<SearchStats> subquery_stats;
  TaStats ta_stats;
  double elapsed_ms = 0.0;
  /// True when the time estimator stopped at least one search early; false
  /// means every search ran to exhaustion (M̂ = M territory, Lemma 7).
  /// Optimal queries never set it.
  bool stopped_by_time = false;

  /// Convenience: the answer entities (pivot node matches), in rank order.
  std::vector<NodeId> AnswerIds() const {
    std::vector<NodeId> out;
    out.reserve(matches.size());
    for (const FinalMatch& m : matches) out.push_back(m.pivot_match);
    return out;
  }
};

/// Decomposition knobs implied by engine options over a concrete graph.
/// Both SgqEngine::Query and the serving layer's decomposition cache derive
/// their DecomposeQuery call from this one mapping, so a cached
/// decomposition is bit-identical to a freshly computed one.
DecomposeOptions MakeDecomposeOptions(const GraphView& graph,
                                      PivotStrategy strategy, size_t n_hat,
                                      uint64_t seed);

/// Extracts the KG matches of query node `query_node` from final matches,
/// deduplicated and in rank order. Works for any query node covered by the
/// decomposition (the pivot is just `FinalMatch::pivot_match`).
std::vector<NodeId> ExtractAnswers(const std::vector<FinalMatch>& matches,
                                   const Decomposition& decomposition,
                                   int query_node);

/// Facade tying graph, predicate space, and node matching together.
class SgqEngine {
 public:
  /// All pointers must outlive the engine. The clock is injectable so the
  /// time-bounded convergence guarantees are testable with a ManualClock.
  SgqEngine(const KnowledgeGraph* graph, const PredicateSpace* space,
            const TransformationLibrary* library,
            const Clock* clock = SystemClock::Default());

  /// Runs the full pipeline on `query`, as `options.mode` says: optimal
  /// top-k (SGQ) or the approximate top-k M̂ under the time bound (TBQ).
  Result<QueryResult> Query(const QueryGraph& query,
                            const QueryOptions& options) const;

  /// Runs with a caller-supplied decomposition (pivot experiments of
  /// Section VII-C use this to force a particular pivot; the serving layer
  /// replays cached plans).
  Result<QueryResult> QueryDecomposed(const QueryGraph& query,
                                      const Decomposition& decomposition,
                                      const QueryOptions& options) const;

  /// Measures the per-match TA assembly cost t on this machine by timing a
  /// simulated assembly (Algorithm 3's "empirical time"). Exposed for tests.
  static double CalibrateAssemblyCostMicros(const Clock* clock);

  const KnowledgeGraph& graph() const { return *graph_; }
  const PredicateSpace& space() const { return *space_; }
  const NodeMatcher& matcher() const { return matcher_; }
  /// For pre-serving configuration (e.g. installing a shared candidate
  /// cache); must not be called while queries are in flight.
  NodeMatcher* mutable_matcher() { return &matcher_; }

 private:
  Result<Decomposition> Decompose(const QueryGraph& query,
                                  const QueryOptions& options) const;
  /// The pipeline both modes share; `policy` supplies the stop rule.
  Result<QueryResult> Run(const QueryGraph& query,
                          const Decomposition& decomposition,
                          const QueryOptions& options,
                          StopPolicy* policy) const;

  const KnowledgeGraph* graph_;
  const PredicateSpace* space_;
  NodeMatcher matcher_;
  const Clock* clock_;
};

}  // namespace kgsearch

#endif  // KGSEARCH_CORE_ENGINE_H_
