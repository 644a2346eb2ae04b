#include "workload.h"

#include <cmath>
#include <numeric>

#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

using kgsearch::QueryMode;

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"sgq_10k", 10'000, QueryMode::kSgq, 0, false},
      {"tbq_100k", 100'000, QueryMode::kTbq, 5'000, false},
      {"ingest_100k", 100'000, QueryMode::kSgq, 0, true},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Answer FromResponse(const kgsearch::QueryResponse& response) {
  Answer a;
  for (const kgsearch::AnswerDto& dto : response.answers) {
    a.ids.push_back(dto.id);
    a.scores.push_back(dto.score);
  }
  a.stats = response.stats;
  a.stopped_by_time = response.stopped_by_time;
  a.total_ms = response.timings.total_ms;
  return a;
}

Answer FromStatus(const kgsearch::Status& status) {
  Answer a;
  a.code = kgsearch::StatusCodeName(status.code());
  return a;
}

Answer DecodeWireAnswer(const std::string& line) {
  kgsearch::Result<kgsearch::JsonValue> json = kgsearch::JsonValue::Parse(line);
  if (!json.ok() || !json.ValueOrDie().is_object()) {
    Answer a;
    a.code = "Transport";
    return a;
  }
  if (const kgsearch::JsonValue* error = json.ValueOrDie().Find("error")) {
    Answer a;
    kgsearch::Result<std::string> code =
        error->is_object() ? kgsearch::JsonGetString(*error, "code")
                           : kgsearch::Result<std::string>(
                                 kgsearch::Status::ParseError("no code"));
    a.code = code.ok() ? code.ValueOrDie() : "Transport";
    return a;
  }
  kgsearch::Result<kgsearch::QueryResponse> response =
      kgsearch::DecodeQueryResponse(json.ValueOrDie());
  if (!response.ok()) {
    Answer a;
    a.code = "Transport";
    return a;
  }
  return FromResponse(response.ValueOrDie());
}

Answer FromQueryResult(const kgsearch::QueryResult& result) {
  Answer a;
  for (const kgsearch::FinalMatch& m : result.matches) {
    a.ids.push_back(m.pivot_match);
    a.scores.push_back(m.score);
  }
  a.stats.subqueries = result.subquery_stats.size();
  for (const kgsearch::SearchStats& s : result.subquery_stats) {
    a.stats.expanded += s.expanded;
    a.stats.generated += s.goals_emitted;
  }
  a.stats.ta_sorted_accesses = result.ta_stats.sorted_accesses;
  a.stats.ta_early_terminated = result.ta_stats.early_terminated;
  return a;
}

Answer FromTbqResult(const kgsearch::TimeBoundedResult& result) {
  kgsearch::QueryResult as_sgq;
  as_sgq.matches = result.matches;
  as_sgq.subquery_stats = result.subquery_stats;
  as_sgq.ta_stats = result.ta_stats;
  Answer a = FromQueryResult(as_sgq);
  a.stopped_by_time = result.stopped_by_time;
  return a;
}

std::string CheckWellFormed(const Answer& answer, size_t num_nodes) {
  if (!answer.ok()) return "";
  if (answer.ids.size() > kTopK) return "more than k answers";
  for (size_t i = 0; i < answer.ids.size(); ++i) {
    if (answer.ids[i] >= num_nodes) return "answer id out of range";
    if (!std::isfinite(answer.scores[i])) return "non-finite score";
    if (i > 0 && answer.scores[i] > answer.scores[i - 1]) {
      return "scores not in descending order";
    }
  }
  return "";
}

std::vector<kgsearch::InsightQuery> BuildMix(const WorkloadSpec& workload,
                                             uint64_t seed) {
  const kgsearch::ScaleKgSpec spec =
      kgsearch::ScaleSpecFor(workload.nodes, kGraphSeed);
  kgsearch::InsightMixOptions options;
  options.num_queries = kMixQueries;
  options.seed = seed;
  options.alias_noise_fraction = 0.25;
  return kgsearch::BuildInsightMix(kgsearch::MakeInsightProfile(spec),
                                   options);
}

kgsearch::QueryRequest MakeRequest(const WorkloadSpec& workload,
                                   const kgsearch::QueryGraph& query) {
  kgsearch::QueryRequest request;
  request.dataset = kDataset;
  request.mode = workload.mode;
  request.query_graph = query;
  request.options.k = kTopK;
  if (workload.mode == QueryMode::kTbq) {
    request.options.time_bound_micros = workload.time_bound_micros;
  }
  return request;
}

RequestOrder::RequestOrder(size_t num_queries, uint64_t seed, size_t client)
    : cycle_(num_queries),
      seed_(kgsearch::MixSeed(seed, 0x0c11e47 + client)) {
  Reshuffle();
}

void RequestOrder::Reshuffle() {
  std::iota(cycle_.begin(), cycle_.end(), size_t{0});
  kgsearch::FastRng rng(kgsearch::MixSeed(seed_, cycles_++));
  rng.Shuffle(&cycle_);
  pos_ = 0;
}

size_t RequestOrder::Next() {
  if (pos_ == cycle_.size()) Reshuffle();
  return cycle_[pos_++];
}

Answer ReferenceAnswer(const kgsearch::SgqEngine& engine,
                       const kgsearch::QueryGraph& query,
                       const kgsearch::GraphView* view) {
  kgsearch::RequestOptions wire;
  wire.k = kTopK;
  kgsearch::EngineOptions options = kgsearch::ToEngineOptions(wire);
  options.threads = 1;
  options.view = view;
  kgsearch::Result<kgsearch::QueryResult> result =
      engine.Query(query, options);
  if (!result.ok()) return FromStatus(result.status());
  return FromQueryResult(result.ValueOrDie());
}

}  // namespace perfbench
