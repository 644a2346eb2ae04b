#include "service/query_service.h"

#include <utility>

#include "util/cancel.h"
#include "util/string_util.h"

namespace kgsearch {

namespace {

/// Monotone process-wide source of ServiceStatsSnapshot::generation values;
/// starts at 1 so a default-constructed snapshot (generation 0) never
/// matches a real service.
uint64_t NextServiceGeneration() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

std::string QuerySignature(const QueryGraph& query, PivotStrategy strategy,
                           size_t n_hat, uint64_t seed) {
  // Node and edge labels separated by unit separators; '\x1f' cannot occur
  // in sane labels, so distinct queries cannot collide.
  std::string sig;
  sig.reserve(64 + query.NumNodes() * 16 + query.NumEdges() * 16);
  sig += StrFormat("s%d;n%zu;r%llu", static_cast<int>(strategy), n_hat,
                   static_cast<unsigned long long>(seed));
  for (const QueryNode& node : query.nodes()) {
    sig += '\x1f';
    sig += node.type;
    sig += '\x1e';
    sig += node.name;
  }
  for (const QueryEdge& edge : query.edges()) {
    sig += StrFormat("\x1f%d-%d:", edge.from, edge.to);
    sig += edge.predicate;
  }
  return sig;
}

/// RAII guard over one query execution: construction marks the query in
/// flight, Finish(ok) records latency and outcome. If an exception skips
/// Finish, the destructor records the query as failed so the in-flight
/// gauge and totals can never drift.
class QueryService::FlightTracker {
 public:
  FlightTracker(QueryService* service, std::atomic<uint64_t>* mode_counter)
      : service_(service), mode_counter_(mode_counter), watch_(service->clock_) {
    service_->in_flight_.fetch_add(1, std::memory_order_relaxed);
  }

  ~FlightTracker() {
    if (!finished_) Finish(false);
  }

  void Finish(bool ok) {
    finished_ = true;
    service_->latency_.RecordMicros(watch_.ElapsedMicros());
    service_->queries_total_.fetch_add(1, std::memory_order_relaxed);
    mode_counter_->fetch_add(1, std::memory_order_relaxed);
    if (!ok) service_->queries_failed_.fetch_add(1, std::memory_order_relaxed);
    service_->in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  QueryService* service_;
  std::atomic<uint64_t>* mode_counter_;
  StopWatch watch_;
  bool finished_ = false;
};

QueryService::QueryService(const KnowledgeGraph* graph,
                           const PredicateSpace* space,
                           const TransformationLibrary* library,
                           QueryServiceOptions options, const Clock* clock)
    : clock_(clock),
      generation_(NextServiceGeneration()),
      engine_(graph, space, library, clock),
      decomposition_cache_(options.decomposition_cache_capacity),
      admission_(options.max_in_flight, options.max_queued),
      start_micros_(clock->NowMicros()),
      external_pool_(options.executor),
      owned_pool_(options.executor != nullptr
                      ? nullptr
                      : std::make_unique<ThreadPool>(
                            DefaultPoolThreads(options.num_threads))) {
  if (options.matcher_cache_capacity > 0) {
    matcher_cache_ = std::make_shared<MatcherCandidateCache>(
        options.matcher_cache_capacity);
    engine_.mutable_matcher()->set_candidate_cache(matcher_cache_);
  }
}

Result<Decomposition> QueryService::CachedDecomposition(
    const QueryGraph& query, PivotStrategy strategy, size_t n_hat,
    uint64_t seed, const GraphView& view) {
  // Plan cache: DecomposeQuery is pure in (query, strategy, n_hat, seed,
  // graph). The graph is no longer immutable under live ingest, so the
  // view's epoch joins the key — a hit replays the exact plan for exactly
  // that graph state (epoch 0 = the pristine base).
  std::string key = QuerySignature(query, strategy, n_hat, seed);
  key += StrFormat("\x1f" "e%llu",
                   static_cast<unsigned long long>(view.epoch()));
  Decomposition decomposition;
  if (decomposition_cache_.Get(key, &decomposition)) return decomposition;
  Result<Decomposition> computed = DecomposeQuery(
      query, MakeDecomposeOptions(view, strategy, n_hat, seed));
  if (!computed.ok()) return computed.status();
  decomposition_cache_.Put(key, computed.ValueOrDie());
  return computed;
}

void QueryService::ClassifyOutcome(const Status& status) {
  if (status.code() == StatusCode::kCancelled) {
    queries_cancelled_.fetch_add(1, std::memory_order_relaxed);
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    queries_deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  }
}

Result<QueryResult> QueryService::Query(const QueryGraph& query,
                                        QueryOptions options,
                                        RequestPriority priority) {
  if (!admission_.TryAdmit(/*async=*/false, priority)) {
    return admission_.OverCapacityStatus(/*async=*/false, "service");
  }
  AdmissionSlot slot(&admission_);  // released even if execution throws
  return QueryAdmitted(query, std::move(options));
}

Result<QueryResult> QueryService::QueryAdmitted(const QueryGraph& query,
                                                QueryOptions options) {
  options.executor = executor();
  FlightTracker tracker(this, options.mode == QueryMode::kTbq
                                  ? &tbq_queries_
                                  : &sgq_queries_);
  // Fail before paying for decomposition when the request arrived already
  // expired or revoked (an async task may have waited out its own budget
  // in the queue). The engine re-polls the same policy between expansions.
  Status interrupted =
      CheckInterrupt(options.cancel, options.deadline_micros, clock_);
  if (!interrupted.ok()) {
    tracker.Finish(false);
    ClassifyOutcome(interrupted);
    return interrupted;
  }
  const GraphView view =
      options.view != nullptr ? *options.view : GraphView(engine_.graph());
  Result<Decomposition> decomposition = CachedDecomposition(
      query, options.pivot_strategy, options.n_hat, options.seed, view);
  if (!decomposition.ok()) {
    tracker.Finish(false);
    return decomposition.status();
  }
  Result<QueryResult> result =
      engine_.QueryDecomposed(query, decomposition.ValueOrDie(), options);
  tracker.Finish(result.ok());
  if (!result.ok()) ClassifyOutcome(result.status());
  return result;
}

ServiceStatsSnapshot QueryService::Stats() const {
  ServiceStatsSnapshot s;
  s.generation = generation_;
  s.queries_total = queries_total_.load(std::memory_order_relaxed);
  s.queries_failed = queries_failed_.load(std::memory_order_relaxed);
  s.sgq_queries = sgq_queries_.load(std::memory_order_relaxed);
  s.tbq_queries = tbq_queries_.load(std::memory_order_relaxed);
  s.queries_rejected = admission_.rejected();
  s.queries_cancelled = queries_cancelled_.load(std::memory_order_relaxed);
  s.queries_deadline_exceeded =
      queries_deadline_exceeded_.load(std::memory_order_relaxed);
  s.decomposition_cache_hits = decomposition_cache_.hits();
  s.decomposition_cache_misses = decomposition_cache_.misses();
  if (matcher_cache_) {
    s.matcher_cache_hits = matcher_cache_->hits();
    s.matcher_cache_misses = matcher_cache_->misses();
    s.matcher_cache_stale_hits = matcher_cache_->stale_hits();
  }
  s.in_flight = in_flight_.load(std::memory_order_relaxed);
  s.executor_queue_depth = executor()->queue_depth();
  s.admitted_outstanding = admission_.outstanding();
  // Admitted but not yet executing. The two gauges are read apart, so a
  // request that starts between the reads could drive this below zero.
  s.queue_depth = s.admitted_outstanding > s.in_flight
                      ? s.admitted_outstanding - s.in_flight
                      : 0;
  s.uptime_seconds =
      static_cast<double>(clock_->NowMicros() - start_micros_) / 1e6;
  s.qps = s.uptime_seconds > 0.0
              ? static_cast<double>(s.queries_total) / s.uptime_seconds
              : 0.0;
  s.latency_p50_ms = latency_.PercentileMicros(0.50) / 1000.0;
  s.latency_p95_ms = latency_.PercentileMicros(0.95) / 1000.0;
  s.latency_max_ms = static_cast<double>(latency_.max_micros()) / 1000.0;
  return s;
}

}  // namespace kgsearch
