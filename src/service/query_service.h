// QueryService: concurrent serving of SGQ and TBQ queries over one shared
// process-wide executor.
//
// One SgqEngine runs both modes: SGQ and TBQ are two stop policies of the
// same query pipeline (core/engine.h), and each call's QueryOptions::mode
// picks one, so the service has one query path for both. The engine is
// stateless per query (const methods over immutable graph/space/library),
// so the serving layer's job is resource multiplexing and memoization:
//  - one ThreadPool shared by every in-flight query; sub-query A* searches
//    run as caller-participating batches (RunOnPool), so a pool saturated
//    with queries still makes progress on each query's own sub-queries;
//  - an LRU cache of query decompositions (DecomposeQuery is pure in the
//    query + options, so cached plans are bit-identical to fresh ones);
//  - a shared LRU cache of node-matcher candidate lists, installed into
//    the engine's matcher;
//  - per-service counters: QPS, cache hit rates, queue depth, in-flight
//    gauge, and a p50/p95/max latency histogram;
//  - overload safety: a bounded admission gate (service/admission.h) that
//    fails fast with kResourceExhausted instead of queueing without limit,
//    plus per-request deadlines and cooperative cancellation
//    (QueryOptions::deadline_micros / ::cancel) that stop a running query
//    between node expansions with kDeadlineExceeded / kCancelled.
//
// The service is synchronous: Query runs on the caller's thread. The one
// asynchronous path is KgSession::Submit (api/session.h), which admits a
// request against this service's gate at submission, queues it on the
// shared pool, and runs it through QueryAdmitted; the session's own drain
// keeps the service alive while such work is queued. Queue depth is read
// off the gate: admitted requests that are not yet executing.
//
// Thread-safety: all public methods may be called concurrently from any
// thread. The service holds no naked locks of its own — its mutable state
// is the annotated LruCaches (util/lru_cache.h) and the lock-free
// admission gate and counters, each of which synchronizes itself; the
// Clang thread-safety build proves the cache lock discipline (see
// util/thread_annotations.h, and the lock ordering in util/mutex.h:
// service-layer cache locks may be taken while the session registry lock
// is held, never the reverse).
// Results are bit-identical to direct serial SgqEngine execution
// for the same query and options (the differential tests assert this);
// admission control and never-firing deadlines/tokens do not change any
// accepted query's answer.
#ifndef KGSEARCH_SERVICE_QUERY_SERVICE_H_
#define KGSEARCH_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <memory>
#include <string>

#include "core/engine.h"
#include "service/admission.h"
#include "service/service_stats.h"
#include "util/lru_cache.h"
#include "util/thread_pool.h"

namespace kgsearch {

/// Serving-layer knobs (per-query knobs stay in QueryOptions).
struct QueryServiceOptions {
  /// Worker threads in the shared pool; 0 = std::thread::hardware_concurrency
  /// (minimum 2 so sub-query searches overlap even on tiny machines).
  /// Ignored when `executor` is set.
  size_t num_threads = 0;
  /// Non-owning process-wide executor. When set, the service runs all
  /// queries on it instead of owning a pool, so many services (e.g. one per
  /// dataset in a KgSession) multiplex over one pool. Must outlive the
  /// service.
  ThreadPool* executor = nullptr;
  /// Entries in the decomposition plan cache; 0 disables it.
  size_t decomposition_cache_capacity = 512;
  /// Entries (specific-node names) in the shared matcher candidate cache;
  /// 0 disables it.
  size_t matcher_cache_capacity = 4096;
  /// Admission control (see service/admission.h): capacity for requests
  /// admitted to execute immediately. 0 = admission control off (the
  /// backward-compatible default, matching pre-admission behavior).
  size_t max_in_flight = 0;
  /// Additional admission capacity reserved for async submissions
  /// (KgSession::Submit) waiting on the executor. Over-limit requests fail
  /// fast with kResourceExhausted. Meaningless while max_in_flight == 0.
  size_t max_queued = 0;
};

/// A stable cache key for (query graph, decomposition-relevant options).
/// Exposed for tests.
std::string QuerySignature(const QueryGraph& query, PivotStrategy strategy,
                           size_t n_hat, uint64_t seed);

/// Multiplexes many concurrent SGQ/TBQ queries over one shared executor.
class QueryService {
 public:
  /// All pointers must outlive the service.
  QueryService(const KnowledgeGraph* graph, const PredicateSpace* space,
               const TransformationLibrary* library,
               QueryServiceOptions options = {},
               const Clock* clock = SystemClock::Default());

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Synchronous query on the shared executor, optimal or time-bounded as
  /// `options.mode` says. `options.executor` and `options.threads` are
  /// overridden by the service's pool. With admission control on,
  /// over-limit requests return kResourceExhausted without executing; an
  /// expired `options.deadline_micros` or cancelled `options.cancel`
  /// returns kDeadlineExceeded / kCancelled.
  Result<QueryResult> Query(const QueryGraph& query, QueryOptions options,
                            RequestPriority priority =
                                RequestPriority::kNormal);
  /// Compat spelling of a time-bounded Query, kept for perfbench/.
  Result<QueryResult> QueryTimeBounded(const QueryGraph& query,
                                       TimeBoundedOptions options) {
    return Query(query, std::move(options));
  }

  /// Execution for a caller that already holds a slot on
  /// mutable_admission() (KgSession::Submit admits async requests at
  /// submission time so its queue stays bounded, then runs them here
  /// without a second gate). The caller owes exactly one Release() — use
  /// AdmissionSlot. Every query lands here: deadline fast path,
  /// decomposition cache, engine call, outcome classification, and the
  /// counters of `options.mode`.
  Result<QueryResult> QueryAdmitted(const QueryGraph& query,
                                    QueryOptions options);

  /// Point-in-time counter snapshot.
  [[nodiscard]] ServiceStatsSnapshot Stats() const;

  size_t num_threads() const { return executor()->num_threads(); }
  /// Admission-gate introspection (limits + gauges), for tests and demos.
  const AdmissionController& admission() const { return admission_; }
  /// The gate itself, for callers that admit ahead of QueryAdmitted.
  AdmissionController* mutable_admission() { return &admission_; }
  /// The executor queries run on (owned or externally shared).
  ThreadPool* executor() const {
    return external_pool_ != nullptr ? external_pool_ : owned_pool_.get();
  }
  /// The one engine; it runs both query modes.
  const SgqEngine& sgq_engine() const { return engine_; }
  /// Compat spelling of sgq_engine(), kept for perfbench/.
  const SgqEngine& tbq_engine() const { return engine_; }

 private:
  /// RAII guard updating the in-flight gauge, latency histogram, and
  /// success/failure counters around one query execution.
  class FlightTracker;

  /// Bumps the cancelled/deadline-exceeded counters for a finished query.
  void ClassifyOutcome(const Status& status);

  /// The decomposition plan, via the LRU cache (both SGQ and TBQ traffic).
  /// `view` is the graph the query will actually run against (a pinned
  /// live-ingest snapshot, or the base graph); its epoch is part of the
  /// cache key, so a plan computed against one epoch is never replayed
  /// against another — DecomposeQuery reads the graph's average degree,
  /// which moves under ingest.
  Result<Decomposition> CachedDecomposition(const QueryGraph& query,
                                            PivotStrategy strategy,
                                            size_t n_hat, uint64_t seed,
                                            const GraphView& view);

  const Clock* clock_;
  /// Process-unique instance id stamped into every stats snapshot, so rate
  /// trackers can tell a blue-green service replacement from counter
  /// movement (see ServiceStatsSnapshot::generation).
  const uint64_t generation_;
  SgqEngine engine_;
  std::shared_ptr<MatcherCandidateCache> matcher_cache_;  ///< may be null
  LruCache<std::string, Decomposition> decomposition_cache_;

  AdmissionController admission_;
  std::atomic<uint64_t> queries_total_{0};
  std::atomic<uint64_t> queries_failed_{0};
  std::atomic<uint64_t> sgq_queries_{0};
  std::atomic<uint64_t> tbq_queries_{0};
  std::atomic<uint64_t> queries_cancelled_{0};
  std::atomic<uint64_t> queries_deadline_exceeded_{0};
  std::atomic<size_t> in_flight_{0};
  LatencyHistogram latency_;
  int64_t start_micros_ = 0;

  ThreadPool* external_pool_ = nullptr;  ///< non-owning; null when owned
  std::unique_ptr<ThreadPool> owned_pool_;  ///< null with an external pool
};

}  // namespace kgsearch

#endif  // KGSEARCH_SERVICE_QUERY_SERVICE_H_
