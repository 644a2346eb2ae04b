// Response-time-bounded querying (Section VI): the same query under
// tightening time bounds, showing the anytime accuracy/latency trade-off
// and the convergence of Theorem 4.
//
//   $ ./time_bounded
#include <algorithm>
#include <cstdio>

#include "core/engine.h"
#include "eval/metrics.h"
#include "gen/workload.h"

using namespace kgsearch;

int main() {
  auto dataset = GenerateDataset(DbpediaLikeSpec(1.0));
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const GeneratedDataset& ds = *dataset.ValueOrDie();

  // A star query: subjects related to two anchors at once (Figure 3(b)).
  auto query = MakeStarQuery(ds, {{0, 0}, {1, 0}});
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  const QueryWithGold& q = query.ValueOrDie();
  std::printf("query: %s, |gold| = %zu\n", q.description.c_str(),
              q.gold.size());

  SgqEngine engine(ds.graph.get(), ds.space.get(), &ds.library);

  // Reference answers with a generous bound (M, the optimal answer set).
  TimeBoundedOptions options;
  options.k = q.gold.size();
  options.time_bound_micros = 2'000'000;
  auto reference = engine.Query(q.query, options);
  if (!reference.ok()) {
    std::fprintf(stderr, "%s\n", reference.status().ToString().c_str());
    return 1;
  }
  std::vector<NodeId> optimal = reference.ValueOrDie().AnswerIds();

  std::printf("\n%10s %10s %10s %10s %8s\n", "bound(us)", "answers",
              "Jaccard", "recall", "time(ms)");
  for (int64_t bound : {200, 500, 1000, 2000, 5000, 20000, 2000000}) {
    options.time_bound_micros = bound;
    auto result = engine.Query(q.query, options);
    if (!result.ok()) continue;
    const QueryResult& r = result.ValueOrDie();
    std::vector<NodeId> answers = r.AnswerIds();
    Prf prf = ComputePrf(answers, q.gold);
    std::printf("%10lld %10zu %10.3f %10.3f %8.2f%s\n",
                static_cast<long long>(bound), answers.size(),
                Jaccard(answers, optimal), prf.recall, r.elapsed_ms,
                r.stopped_by_time ? "  (stopped by bound)" : "");
  }
  std::printf("\nApproximate answers improve monotonically with the bound "
              "and converge to the optimal set (Theorem 4).\n");
  return 0;
}
