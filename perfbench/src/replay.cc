#include "replay.h"

#include <algorithm>
#include <utility>

#include "core/semantic_weights.h"

namespace perfbench {

using namespace kgsearch;  // NOLINT(google-build-using-namespace)

Answer ReplaySgq(const SgqEngine& engine, const QueryGraph& query,
                 const EngineOptions& options, const GraphView& view,
                 TraceLog* log, int parent, uint64_t request,
                 ReplayCounts* counts) {
  int span = log->Begin("core.decompose", parent, request);
  Result<Decomposition> decomposition = DecomposeQuery(
      query, MakeDecomposeOptions(view, options.pivot_strategy,
                                  options.n_hat, options.seed));
  log->End(span);
  if (!decomposition.ok()) return FromStatus(decomposition.status());
  const std::vector<SubQueryGraph>& subqueries =
      decomposition.ValueOrDie().subqueries;
  const size_t n = subqueries.size();
  counts->subqueries += n;

  NodeMatcher matcher(view, engine.matcher().library());
  matcher.set_candidate_cache(engine.matcher().candidate_cache());
  std::vector<ResolvedSubQuery> resolved;
  resolved.reserve(n);
  for (const SubQueryGraph& sub : subqueries) {
    span = log->Begin("match.resolve", parent, request);
    Result<ResolvedSubQuery> r = ResolveSubQuery(query, sub, matcher);
    log->End(span);
    if (!r.ok()) return FromStatus(r.status());
    counts->start_candidates += r.ValueOrDie().start_candidates.size();
    resolved.push_back(std::move(r).ValueOrDie());
  }
  for (const ResolvedSubQuery& sub : resolved) {
    span = log->Begin("embedding.weights", parent, request);
    const SemanticWeights weights(view, &engine.space(), &sub);
    log->End(span);
  }

  QueryResult result;
  result.subquery_stats.assign(n, SearchStats{});
  size_t budget = std::max<size_t>(options.budget_factor * options.k, 16);
  for (size_t round = 0; round <= options.max_retry_rounds; ++round) {
    std::vector<std::vector<PathMatch>> match_sets(n);
    for (size_t i = 0; i < n; ++i) {
      AStarConfig config;
      config.k = budget;
      config.tau = options.tau;
      config.n_hat = options.n_hat;
      config.max_expansions = options.max_expansions;
      config.dedup = options.dedup;
      config.max_matches_per_target = options.matches_per_target;
      SearchStats& stats = result.subquery_stats[i];
      span = log->Begin("core.astar", parent, request);
      Result<std::vector<PathMatch>> r =
          AStarSearch(view, engine.space(), resolved[i], config, &stats);
      log->End(span);
      if (!r.ok()) return FromStatus(r.status());
      match_sets[i] = std::move(r).ValueOrDie();
      counts->pops += stats.popped;
      counts->expanded += stats.expanded;
      counts->pruned_tau += stats.pruned_tau;
      counts->pruned_visited += stats.pruned_visited;
      counts->goals += stats.goals_emitted;
      counts->materialized += stats.materialized_nodes;
    }
    span = log->Begin("core.ta", parent, request);
    Result<std::vector<FinalMatch>> assembled =
        AssembleTopK(match_sets, options.k, &result.ta_stats);
    log->End(span);
    if (!assembled.ok()) return FromStatus(assembled.status());
    result.matches = std::move(assembled).ValueOrDie();
    ++counts->ta_calls;
    counts->ta_early += result.ta_stats.early_terminated ? 1 : 0;
    counts->ta_sorted_accesses += result.ta_stats.sorted_accesses;

    const bool any_truncated =
        std::any_of(match_sets.begin(), match_sets.end(),
                    [budget](const auto& set) { return set.size() >= budget; });
    if (result.matches.size() >= options.k || !any_truncated) break;
    ++counts->retry_rounds;
    budget *= 2;
  }
  return FromQueryResult(result);
}

}  // namespace perfbench
