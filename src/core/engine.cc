#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace kgsearch {

DecomposeOptions MakeDecomposeOptions(const GraphView& graph,
                                      PivotStrategy strategy, size_t n_hat,
                                      uint64_t seed) {
  DecomposeOptions dopts;
  dopts.strategy = strategy;
  dopts.avg_degree = graph.AverageDegree();
  dopts.n_hat = n_hat;
  dopts.seed = seed;
  return dopts;
}

std::vector<NodeId> ExtractAnswers(const std::vector<FinalMatch>& matches,
                                   const Decomposition& decomposition,
                                   int query_node) {
  // Locate the (sub-query, position) of the query node once.
  int sub = -1;
  size_t pos = 0;
  for (size_t i = 0; i < decomposition.subqueries.size(); ++i) {
    const auto& seq = decomposition.subqueries[i].node_seq;
    for (size_t j = 0; j < seq.size(); ++j) {
      if (seq[j] == query_node) {
        sub = static_cast<int>(i);
        pos = j;
        break;
      }
    }
    if (sub >= 0) break;
  }
  std::vector<NodeId> out;
  if (sub < 0) return out;
  std::unordered_set<NodeId> seen;
  for (const FinalMatch& m : matches) {
    KG_CHECK(static_cast<size_t>(sub) < m.parts.size());
    // Prefer the retained alternates (best-first) so non-pivot query nodes
    // yield every distinct match at this pivot, not just the top one.
    if (!m.alternates.empty() &&
        !m.alternates[static_cast<size_t>(sub)].empty()) {
      for (const PathMatch& alt : m.alternates[static_cast<size_t>(sub)]) {
        NodeId u = alt.MatchOfQueryNode(pos);
        if (seen.insert(u).second) out.push_back(u);
      }
    } else {
      NodeId u = m.parts[static_cast<size_t>(sub)].MatchOfQueryNode(pos);
      if (seen.insert(u).second) out.push_back(u);
    }
  }
  return out;
}

// The mode-specific part of a query: how each sub-query search stops, and
// whether a finished round runs again. One instance serves one query.
class StopPolicy {
 public:
  StopPolicy() = default;
  // The searches call back into the policy by address from pool threads.
  StopPolicy(const StopPolicy&) = delete;
  StopPolicy& operator=(const StopPolicy&) = delete;

  /// Called once the sub-queries are resolved, before the first round.
  virtual void Begin() {}
  /// Sets the stop rule of sub-query `i`'s search for the current round.
  virtual void Configure(size_t i, AStarConfig* config) = 0;
  /// Called after each round's assembly; true runs another round.
  virtual bool Retry(
      const std::vector<std::vector<PathMatch>>& /*match_sets*/,
      size_t /*final_matches*/) {
    return false;
  }

 protected:
  ~StopPolicy() = default;  // never deleted through the base
};

namespace {

// Optimal search (Algorithm 1) with a per-sub-query match budget: a round
// is re-run with a doubled budget while assembly yields fewer than k final
// matches and some search was cut off by the budget.
class OptimalPolicy final : public StopPolicy {
 public:
  explicit OptimalPolicy(const QueryOptions& options)
      : options_(options),
        budget_(std::max<size_t>(options.budget_factor * options.k, 16)) {}

  void Configure(size_t, AStarConfig* config) override {
    config->k = budget_;
    config->max_matches_per_target = options_.matches_per_target;
  }

  bool Retry(const std::vector<std::vector<PathMatch>>& match_sets,
             size_t final_matches) override {
    const bool any_truncated = std::any_of(
        match_sets.begin(), match_sets.end(),
        [this](const std::vector<PathMatch>& set) {
          return set.size() >= budget_;
        });
    if (final_matches >= options_.k || !any_truncated ||
        retries_ == options_.max_retry_rounds) {
      return false;
    }
    ++retries_;
    budget_ *= 2;
    return true;
  }

 private:
  const QueryOptions& options_;
  size_t budget_;
  size_t retries_ = 0;
};

// Anytime search (Algorithms 2-3): every search collects matches as they
// are generated and polls one synchronized time estimator. Each search
// publishes its |M̂i|; all of them stop once
//   elapsed + (Σ|M̂i|)·t  >=  T·r%.
// All searches run concurrently, so the elapsed wall time stands in for
// max{T_A*}; with sequential execution (threads=1) it equals Σ T_A*, which
// is only more conservative.
class AnytimePolicy final : public StopPolicy {
 public:
  AnytimePolicy(const QueryOptions& options, size_t num_subqueries,
                const Clock* clock)
      : options_(options), clock_(clock), match_counts_(num_subqueries) {}

  void Begin() override {
    t_micros_ = options_.per_match_assembly_micros;
    if (t_micros_ <= 0.0) {
      t_micros_ = SgqEngine::CalibrateAssemblyCostMicros(clock_);
    }
    start_micros_ = clock_->NowMicros();
  }

  void Configure(size_t i, AStarConfig* config) override {
    config->k = SIZE_MAX;  // anytime mode ignores k; time governs
    config->anytime = true;
    config->anytime_match_cap = options_.match_cap;
    config->should_stop = [this, i](size_t matches_so_far) {
      return ShouldStop(i, matches_so_far);
    };
  }


 private:
  bool ShouldStop(size_t self_index, size_t matches_so_far) {
    match_counts_[self_index].store(matches_so_far,
                                    std::memory_order_relaxed);
    if (stop_all_.load(std::memory_order_relaxed)) return true;
    size_t total_matches = 0;
    for (const auto& c : match_counts_) {
      total_matches += c.load(std::memory_order_relaxed);
    }
    const double elapsed =
        static_cast<double>(clock_->NowMicros() - start_micros_);
    const double estimate =
        elapsed + static_cast<double>(total_matches) * t_micros_;
    const double alert_micros =
        static_cast<double>(options_.time_bound_micros) *
        options_.alert_ratio;
    if (estimate >= alert_micros) {
      stop_all_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  const QueryOptions& options_;
  const Clock* clock_;
  double t_micros_ = 0.0;
  int64_t start_micros_ = 0;
  std::vector<std::atomic<size_t>> match_counts_;
  std::atomic<bool> stop_all_{false};
};

}  // namespace

SgqEngine::SgqEngine(const KnowledgeGraph* graph, const PredicateSpace* space,
                     const TransformationLibrary* library, const Clock* clock)
    : graph_(graph), space_(space), matcher_(graph, library), clock_(clock) {
  KG_CHECK(space != nullptr && clock != nullptr);
}

double SgqEngine::CalibrateAssemblyCostMicros(const Clock* clock) {
  // Simulated TA assembly over synthetic match sets, as Algorithm 3's
  // empirical estimate of t. 2 sets x 2048 matches with disjoint-ish pivots
  // force a full scan, which is the worst case the estimator must cover.
  constexpr size_t kSets = 2;
  constexpr size_t kPerSet = 2048;
  Rng rng(7);
  std::vector<std::vector<PathMatch>> sets(kSets);
  for (size_t i = 0; i < kSets; ++i) {
    sets[i].reserve(kPerSet);
    double pss = 0.999;
    for (size_t j = 0; j < kPerSet; ++j) {
      PathMatch m;
      NodeId pivot = static_cast<NodeId>(rng.UniformIndex(kPerSet * 2));
      m.nodes = {0, pivot};
      m.predicates = {0};
      m.weights = {pss};
      m.pss = pss;
      pss *= 0.9995;
      sets[i].push_back(std::move(m));
    }
  }
  StopWatch watch(clock);
  TaStats stats;
  Result<std::vector<FinalMatch>> r = AssembleTopK(sets, 16, &stats);
  KG_CHECK(r.ok());
  int64_t elapsed = watch.ElapsedMicros();
  if (stats.sorted_accesses == 0 || elapsed <= 0) return 1.0;  // manual clock
  return std::max(0.05, static_cast<double>(elapsed) /
                            static_cast<double>(stats.sorted_accesses));
}

Result<Decomposition> SgqEngine::Decompose(const QueryGraph& query,
                                           const QueryOptions& options) const {
  const GraphView view = options.view ? *options.view : GraphView(*graph_);
  return DecomposeQuery(
      query, MakeDecomposeOptions(view, options.pivot_strategy,
                                  options.n_hat, options.seed));
}

Result<QueryResult> SgqEngine::Query(const QueryGraph& query,
                                     const QueryOptions& options) const {
  Result<Decomposition> decomposition = Decompose(query, options);
  if (!decomposition.ok()) return decomposition.status();
  return QueryDecomposed(query, decomposition.ValueOrDie(), options);
}

Result<QueryResult> SgqEngine::QueryDecomposed(
    const QueryGraph& query, const Decomposition& decomposition,
    const QueryOptions& options) const {
  if (options.mode == QueryMode::kSgq) {
    OptimalPolicy policy(options);
    return Run(query, decomposition, options, &policy);
  }
  if (options.time_bound_micros <= 0) {
    return Status::InvalidArgument("time bound must be positive");
  }
  AnytimePolicy policy(options, decomposition.subqueries.size(), clock_);
  return Run(query, decomposition, options, &policy);
}

Result<QueryResult> SgqEngine::Run(const QueryGraph& query,
                                   const Decomposition& decomposition,
                                   const QueryOptions& options,
                                   StopPolicy* policy) const {
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  // The hard per-request wall (deadline / cancellation), distinct from the
  // anytime policy's soft budget: checked here (fail fast when the request
  // arrives already expired or revoked), polled inside every sub-query
  // search, and re-checked between rounds. Firing aborts the query with a
  // Status instead of assembling a partial answer.
  auto interrupt = [cancel = options.cancel,
                    deadline = options.deadline_micros, clock = clock_]() {
    return CheckInterrupt(cancel, deadline, clock);
  };
  KG_RETURN_NOT_OK(interrupt());
  StopWatch watch(clock_);

  QueryResult result;
  result.decomposition = decomposition;
  const size_t n = decomposition.subqueries.size();
  KG_CHECK(n > 0);

  // The whole query — resolution, search, answer extraction — reads one
  // view. With no pinned snapshot this is the base graph (epoch 0) and the
  // per-query matcher below is behaviorally identical to the engine's own.
  const GraphView view = options.view ? *options.view : GraphView(*graph_);
  NodeMatcher matcher(view, matcher_.library());
  matcher.set_candidate_cache(matcher_.candidate_cache());

  // Resolve every sub-query up front; resolution failures (mismatch in
  // query nodes/predicates, Figure 1) abort the query.
  std::vector<ResolvedSubQuery> resolved;
  resolved.reserve(n);
  for (const SubQueryGraph& sub : decomposition.subqueries) {
    Result<ResolvedSubQuery> r = ResolveSubQuery(query, sub, matcher);
    if (!r.ok()) return r.status();
    resolved.push_back(std::move(r).ValueOrDie());
  }

  result.subquery_stats.assign(n, SearchStats{});
  policy->Begin();
  for (;;) {
    // One A* semantic search per sub-query graph, in parallel.
    std::vector<std::vector<PathMatch>> match_sets(n);
    std::vector<Status> statuses(n, Status::OK());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      tasks.push_back([&, i] {
        AStarConfig config;
        config.tau = options.tau;
        config.n_hat = options.n_hat;
        config.max_expansions = options.max_expansions;
        config.dedup = options.dedup;
        config.stop_check_interval = options.stop_check_interval;
        if (options.cancel != nullptr || options.deadline_micros > 0) {
          config.interrupt = interrupt;
        }
        policy->Configure(i, &config);
        Result<std::vector<PathMatch>> r = AStarSearch(
            view, *space_, resolved[i], config, &result.subquery_stats[i]);
        if (r.ok()) {
          match_sets[i] = std::move(r).ValueOrDie();
        } else {
          statuses[i] = r.status();
        }
      });
    }
    if (options.executor != nullptr) {
      RunOnPool(options.executor, std::move(tasks));
    } else {
      size_t threads = options.threads == 0 ? n : options.threads;
      RunParallel(std::move(tasks), threads);
    }
    for (const Status& s : statuses) KG_RETURN_NOT_OK(s);

    Result<std::vector<FinalMatch>> assembled =
        AssembleTopK(match_sets, options.k, &result.ta_stats);
    if (!assembled.ok()) return assembled.status();
    result.matches = std::move(assembled).ValueOrDie();
    if (!policy->Retry(match_sets, result.matches.size())) break;
    KG_RETURN_NOT_OK(interrupt());
  }

  for (const SearchStats& s : result.subquery_stats) {
    if (s.stopped_early) result.stopped_by_time = true;
  }
  result.elapsed_ms = watch.ElapsedMillis();
  return result;
}

}  // namespace kgsearch
