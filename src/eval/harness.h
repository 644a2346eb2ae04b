// Shared benchmark harness: builds the method roster of the paper's
// evaluation (Section VII-A) and runs methods over generated workloads,
// aggregating effectiveness and response-time statistics.
#ifndef KGSEARCH_EVAL_HARNESS_H_
#define KGSEARCH_EVAL_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/adapters.h"
#include "baselines/method.h"
#include "eval/metrics.h"
#include "gen/workload.h"
#include "service/query_service.h"
#include "util/clock.h"

namespace kgsearch {

/// Aggregated result of one method over a workload.
struct MethodRun {
  std::string method;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double avg_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  size_t queries_failed = 0;  ///< unresolved queries (the paper's "%")
};

/// Runs one method over a workload at top-k. When `k` is 0, each query uses
/// k = |gold| (the paper's P=R setting). Failed queries contribute zero
/// precision/recall, matching how the paper's "%" rows read.
MethodRun RunMethodOnWorkload(const GraphQueryMethod& method,
                              const std::vector<QueryWithGold>& workload,
                              size_t k,
                              const Clock* clock = SystemClock::Default());

/// Runs a workload through a QueryService (SGQ mode) in waves of
/// `concurrency` synchronous QueryService::Query calls, run together on the
/// service's executor with RunOnPool (the calling thread takes part).
/// Effectiveness metrics are computed exactly as in RunMethodOnWorkload.
/// Per-query time is measured inside each task around its own Query call,
/// so it excludes the wait for a free worker. The method label is
/// "SGQ-service".
MethodRun RunServiceOnWorkload(QueryService* service,
                               const std::vector<QueryWithGold>& workload,
                               size_t k, const EngineOptions& options,
                               size_t concurrency = 8,
                               const Clock* clock = SystemClock::Default());

/// The comparison roster of Figures 12-14: SGQ, GraB, S4, QGA, p-hom.
/// S4's prior knowledge is mined from `prior_fraction` of each intent's
/// gold pairs (its sensitivity knob). TBQ is handled separately because its
/// per-query bound derives from SGQ's measured time.
std::vector<std::unique_ptr<GraphQueryMethod>> MakeComparisonMethods(
    const GeneratedDataset& ds, const EngineOptions& sgq_options,
    double s4_prior_fraction = 0.5);

/// Runs TBQ with a per-query time bound of `ratio` times SGQ's measured
/// time on that query (the TBQ-0.9 configuration).
MethodRun RunTbqRelativeToSgq(const GeneratedDataset& ds,
                              const std::vector<QueryWithGold>& workload,
                              size_t k, double ratio,
                              const EngineOptions& sgq_options,
                              const Clock* clock = SystemClock::Default());

/// Builds the standard mixed workload for the Figure 12-14 experiments:
/// simple intent queries over the busiest anchors plus star queries
/// combining intents inside each group.
std::vector<QueryWithGold> MakeStandardWorkload(const GeneratedDataset& ds,
                                                size_t max_queries = 8);

/// Runs one full Figure 12/13/14 experiment (P/R/F1 and response time over
/// top-k in {20,40,100,200} for TBQ-0.9, SGQ, GraB, S4, QGA, p-hom) on the
/// given dataset spec and prints the result table. Returns 0 on success.
int RunEffectivenessFigure(const std::string& title, const DatasetSpec& spec);

}  // namespace kgsearch

#endif  // KGSEARCH_EVAL_HARNESS_H_
