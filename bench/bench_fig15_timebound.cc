// Figure 15 reproduction: TBQ's response-time/accuracy trade-off over the
// DBpedia-like dataset at k = 100. The time bound sweeps a range around
// SGQ's own query time; effectiveness must rise monotonically with the
// bound (Theorem 4) and the measured response time must stay within a
// small variation of the bound (Fig. 15(b)).
#include <algorithm>
#include <cstdio>

#include "baselines/adapters.h"
#include "core/engine.h"
#include "eval/harness.h"
#include "eval/reporter.h"

namespace kgsearch {
namespace {

int Run() {
  auto result = GenerateDataset(DbpediaLikeSpec(2.0));
  KG_CHECK(result.ok());
  const GeneratedDataset& ds = *result.ValueOrDie();
  std::vector<QueryWithGold> workload = MakeStandardWorkload(ds, 6);
  KG_CHECK(!workload.empty());

  MethodContext context{ds.graph.get(), ds.space.get(), &ds.library};

  // Reference: SGQ's own time per query (to scale the sweep sensibly on
  // this machine) and its answers (for context in the printout).
  SgqMethod sgq(context, EngineOptions{});
  double sgq_total_ms = 0.0;
  {
    StopWatch watch;
    for (const QueryWithGold& q : workload) {
      auto r = sgq.QueryTopK(q.query, q.answer_node, q.gold.size());
      KG_CHECK(r.ok());
    }
    sgq_total_ms = watch.ElapsedMillis();
  }
  const double sgq_avg_ms =
      sgq_total_ms / static_cast<double>(workload.size());
  std::printf("SGQ average query time: %.2f ms (bounds sweep 20%%-180%%)\n",
              sgq_avg_ms);

  TimeBoundedOptions toptions;
  toptions.per_match_assembly_micros =
      SgqEngine::CalibrateAssemblyCostMicros(SystemClock::Default());
  toptions.stop_check_interval = 16;  // sub-ms bounds need fine checks

  Table table({"Bound(ms)", "Precision", "Recall", "F1", "Min(ms)",
               "Avg(ms)", "Max(ms)"});
  for (double frac : {0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 1.8}) {
    const double bound_ms = std::max(0.05, sgq_avg_ms * frac);
    std::vector<double> ps, rs, f1s, times;
    for (const QueryWithGold& q : workload) {
      TbqMethod tbq("TBQ", context, toptions);
      tbq.set_time_bound_micros(static_cast<int64_t>(bound_ms * 1000.0));
      StopWatch watch;
      auto answers = tbq.QueryTopK(q.query, q.answer_node, q.gold.size());
      times.push_back(watch.ElapsedMillis());
      if (!answers.ok()) {
        ps.push_back(0);
        rs.push_back(0);
        f1s.push_back(0);
        continue;
      }
      Prf prf = ComputePrf(answers.ValueOrDie(), q.gold);
      ps.push_back(prf.precision);
      rs.push_back(prf.recall);
      f1s.push_back(prf.f1);
    }
    table.AddRow({Table::Cell(bound_ms, 2), Table::Cell(Mean(ps)),
                  Table::Cell(Mean(rs)), Table::Cell(Mean(f1s)),
                  Table::Cell(*std::min_element(times.begin(), times.end()), 2),
                  Table::Cell(Mean(times), 2),
                  Table::Cell(*std::max_element(times.begin(), times.end()),
                              2)});
  }
  table.Print("Figure 15: TBQ effectiveness & response time vs time bound "
              "(k=|gold|, DBpedia-like)");
  return 0;
}

}  // namespace
}  // namespace kgsearch

int main() { return kgsearch::Run(); }
