#include "eval/harness.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "baselines/exact_match.h"
#include "baselines/s4.h"
#include "baselines/structural.h"
#include "core/engine.h"
#include "eval/reporter.h"
#include "util/string_util.h"

namespace kgsearch {

MethodRun RunMethodOnWorkload(const GraphQueryMethod& method,
                              const std::vector<QueryWithGold>& workload,
                              size_t k, const Clock* clock) {
  MethodRun run;
  run.method = method.name();
  if (workload.empty()) return run;

  std::vector<double> ps, rs, f1s, times;
  for (const QueryWithGold& q : workload) {
    const size_t effective_k = (k == 0) ? q.gold.size() : k;
    StopWatch watch(clock);
    Result<std::vector<NodeId>> answers =
        method.QueryTopK(q.query, q.answer_node, effective_k);
    const double ms = watch.ElapsedMillis();
    times.push_back(ms);
    if (!answers.ok()) {
      ++run.queries_failed;
      ps.push_back(0.0);
      rs.push_back(0.0);
      f1s.push_back(0.0);
      continue;
    }
    Prf prf = ComputePrf(answers.ValueOrDie(), q.gold);
    ps.push_back(prf.precision);
    rs.push_back(prf.recall);
    f1s.push_back(prf.f1);
  }
  run.precision = Mean(ps);
  run.recall = Mean(rs);
  run.f1 = Mean(f1s);
  run.avg_ms = Mean(times);
  run.min_ms = *std::min_element(times.begin(), times.end());
  run.max_ms = *std::max_element(times.begin(), times.end());
  return run;
}

MethodRun RunServiceOnWorkload(QueryService* service,
                               const std::vector<QueryWithGold>& workload,
                               size_t k, const EngineOptions& options,
                               size_t concurrency, const Clock* clock) {
  MethodRun run;
  run.method = "SGQ-service";
  if (workload.empty()) return run;
  if (concurrency == 0) concurrency = 1;

  std::vector<double> ps, rs, f1s, times;
  for (size_t base = 0; base < workload.size(); base += concurrency) {
    const size_t end = std::min(workload.size(), base + concurrency);

    // Submit the whole wave, then resolve in submission order; measured
    // times are an upper bound per query (see header comment).
    std::vector<std::future<Result<QueryResult>>> futures;
    std::vector<StopWatch> watches;
    for (size_t i = base; i < end; ++i) {
      const QueryWithGold& q = workload[i];
      EngineOptions o = options;
      o.k = (k == 0) ? q.gold.size() : k;
      watches.emplace_back(clock);
      futures.push_back(service->Submit(q.query, o));
    }
    for (size_t i = base; i < end; ++i) {
      const QueryWithGold& q = workload[i];
      Result<QueryResult> r = futures[i - base].get();
      times.push_back(watches[i - base].ElapsedMillis());
      if (!r.ok()) {
        ++run.queries_failed;
        ps.push_back(0.0);
        rs.push_back(0.0);
        f1s.push_back(0.0);
        continue;
      }
      const QueryResult& result = r.ValueOrDie();
      Prf prf = ComputePrf(
          ExtractAnswers(result.matches, result.decomposition, q.answer_node),
          q.gold);
      ps.push_back(prf.precision);
      rs.push_back(prf.recall);
      f1s.push_back(prf.f1);
    }
  }
  run.precision = Mean(ps);
  run.recall = Mean(rs);
  run.f1 = Mean(f1s);
  run.avg_ms = Mean(times);
  run.min_ms = *std::min_element(times.begin(), times.end());
  run.max_ms = *std::max_element(times.begin(), times.end());
  return run;
}

std::vector<std::unique_ptr<GraphQueryMethod>> MakeComparisonMethods(
    const GeneratedDataset& ds, const EngineOptions& sgq_options,
    double s4_prior_fraction) {
  MethodContext context{ds.graph.get(), ds.space.get(), &ds.library};
  std::vector<std::unique_ptr<GraphQueryMethod>> methods;
  methods.push_back(std::make_unique<SgqMethod>(context, sgq_options));
  methods.push_back(MakeGraB(context));

  // S4 prior knowledge: a fraction of each intent's gold pairs on its
  // busiest anchor (patterns keyed by the intent's query predicate).
  std::map<std::string, std::vector<S4Pattern>> patterns;
  for (size_t i = 0; i < ds.intents.size(); ++i) {
    const GeneratedIntent& intent = ds.intents[i];
    std::vector<std::pair<NodeId, NodeId>> examples;
    for (size_t a = 0; a < intent.anchor_names.size() && a < 2; ++a) {
      NodeId anchor = ds.graph->FindNode(intent.anchor_names[a]);
      std::vector<NodeId> gold = ds.GoldIds(i, a);
      const size_t take = std::min<size_t>(
          static_cast<size_t>(static_cast<double>(gold.size()) *
                              s4_prior_fraction),
          60);
      for (size_t j = 0; j < take; ++j) examples.emplace_back(gold[j], anchor);
    }
    patterns[intent.spec.query_predicate] =
        MineS4Patterns(*ds.graph, examples, 3, 2);
  }
  methods.push_back(std::make_unique<S4Method>(context, std::move(patterns)));
  methods.push_back(MakeQga(context));
  methods.push_back(MakePHom(context));
  return methods;
}

MethodRun RunTbqRelativeToSgq(const GeneratedDataset& ds,
                              const std::vector<QueryWithGold>& workload,
                              size_t k, double ratio,
                              const EngineOptions& sgq_options,
                              const Clock* clock) {
  MethodContext context{ds.graph.get(), ds.space.get(), &ds.library};
  SgqMethod sgq(context, sgq_options);

  TimeBoundedOptions toptions;
  toptions.tau = sgq_options.tau;
  toptions.n_hat = sgq_options.n_hat;
  toptions.per_match_assembly_micros =
      SgqEngine::CalibrateAssemblyCostMicros(clock);

  MethodRun run;
  run.method = StrFormat("TBQ-%.1f", ratio);
  std::vector<double> ps, rs, f1s, times;
  for (const QueryWithGold& q : workload) {
    const size_t effective_k = (k == 0) ? q.gold.size() : k;
    // Measure SGQ on this query to derive the bound.
    StopWatch sgq_watch(clock);
    Result<std::vector<NodeId>> sgq_answers =
        sgq.QueryTopK(q.query, q.answer_node, effective_k);
    const double sgq_micros =
        static_cast<double>(sgq_watch.ElapsedMicros());
    (void)sgq_answers;

    TbqMethod tbq(run.method, context, toptions);
    tbq.set_time_bound_micros(
        std::max<int64_t>(50, static_cast<int64_t>(sgq_micros * ratio)));
    StopWatch watch(clock);
    Result<std::vector<NodeId>> answers =
        tbq.QueryTopK(q.query, q.answer_node, effective_k);
    times.push_back(watch.ElapsedMillis());
    if (!answers.ok()) {
      ++run.queries_failed;
      ps.push_back(0.0);
      rs.push_back(0.0);
      f1s.push_back(0.0);
      continue;
    }
    Prf prf = ComputePrf(answers.ValueOrDie(), q.gold);
    ps.push_back(prf.precision);
    rs.push_back(prf.recall);
    f1s.push_back(prf.f1);
  }
  run.precision = Mean(ps);
  run.recall = Mean(rs);
  run.f1 = Mean(f1s);
  run.avg_ms = Mean(times);
  if (!times.empty()) {
    run.min_ms = *std::min_element(times.begin(), times.end());
    run.max_ms = *std::max_element(times.begin(), times.end());
  }
  return run;
}

int RunEffectivenessFigure(const std::string& title,
                           const DatasetSpec& spec) {
  auto result = GenerateDataset(spec);
  KG_CHECK(result.ok());
  const GeneratedDataset& ds = *result.ValueOrDie();
  std::printf("%s: %zu nodes, %zu edges, %zu predicates\n", title.c_str(),
              ds.graph->NumNodes(), ds.graph->NumEdges(),
              ds.graph->NumPredicates());

  std::vector<QueryWithGold> workload = MakeStandardWorkload(ds, 8);
  KG_CHECK(!workload.empty());
  std::printf("workload: %zu queries (", workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", workload[i].description.c_str());
  }
  std::printf(")\n");

  EngineOptions sgq_options;
  auto methods = MakeComparisonMethods(ds, sgq_options);

  Table table({"k", "Method", "Precision", "Recall", "F1", "Time(ms)"});
  for (size_t k : {20u, 40u, 100u, 200u}) {
    MethodRun tbq = RunTbqRelativeToSgq(ds, workload, k, 0.9, sgq_options);
    table.AddRow({std::to_string(k), tbq.method, Table::Cell(tbq.precision),
                  Table::Cell(tbq.recall), Table::Cell(tbq.f1),
                  Table::Cell(tbq.avg_ms, 2)});
    for (const auto& method : methods) {
      MethodRun run = RunMethodOnWorkload(*method, workload, k);
      table.AddRow({std::to_string(k), run.method,
                    Table::Cell(run.precision), Table::Cell(run.recall),
                    Table::Cell(run.f1), Table::Cell(run.avg_ms, 2)});
    }
  }
  table.Print(title + ": P/R/F1 and response time vs top-k");
  return 0;
}

std::vector<QueryWithGold> MakeStandardWorkload(const GeneratedDataset& ds,
                                                size_t max_queries) {
  std::vector<QueryWithGold> workload;
  // Simple queries: busiest anchor of each intent.
  for (size_t i = 0; i < ds.intents.size(); ++i) {
    Result<QueryWithGold> q = MakeIntentQuery(ds, i, 0);
    if (q.ok() && !q.ValueOrDie().gold.empty()) {
      workload.push_back(std::move(q).ValueOrDie());
    }
    if (workload.size() >= max_queries) return workload;
  }
  // Star queries combining adjacent intents within a group.
  for (size_t i = 0; i + 1 < ds.intents.size(); ++i) {
    if (ds.intents[i].group_index != ds.intents[i + 1].group_index) continue;
    Result<QueryWithGold> q = MakeStarQuery(ds, {{i, 0}, {i + 1, 0}});
    if (q.ok() && !q.ValueOrDie().gold.empty()) {
      workload.push_back(std::move(q).ValueOrDie());
    }
    if (workload.size() >= max_queries) return workload;
  }
  return workload;
}

}  // namespace kgsearch
