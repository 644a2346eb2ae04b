// Facade parity: KgSession responses must be bit-identical (same answer
// ids, scores, order) to direct QueryService and direct engine execution
// on the synthetic workload, for both the SGQ and the TBQ path — the
// facade is a pure adapter, never a different engine.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "api/session.h"
#include "core/engine.h"
#include "eval/harness.h"
#include "gen/car_domain.h"
#include "gen/synthetic_kg.h"
#include "gen/workload.h"

namespace kgsearch {
namespace {

class ApiDifferentialTest : public ::testing::Test {
 protected:
  // One session holding both corpora; the generated parts move into the
  // session, so direct engines borrow the session's pointers — both sides
  // run over literally the same data.
  static void SetUpTestSuite() {
    session_ = new KgSession();

    auto car = MakeCarDomainDataset(150, 117);
    ASSERT_TRUE(car.ok()) << car.status().ToString();
    ASSERT_TRUE(session_
                    ->RegisterDataset(
                        "car", std::move(car.ValueOrDie()->graph),
                        std::move(car.ValueOrDie()->space),
                        std::move(car.ValueOrDie()->library))
                    .ok());

    auto dbp = GenerateDataset(DbpediaLikeSpec(0.3, 42));
    ASSERT_TRUE(dbp.ok()) << dbp.status().ToString();
    // The workload builder needs the intact GeneratedDataset; keep it and
    // register non-owning copies is impossible, so build the workload
    // first, then move the parts into the session.
    GeneratedDataset* ds = dbp.ValueOrDie().get();
    workload_ = new std::vector<QueryWithGold>(MakeStandardWorkload(*ds, 8));
    ASSERT_FALSE(workload_->empty());
    ASSERT_TRUE(session_
                    ->RegisterDataset("dbpedia", std::move(ds->graph),
                                      std::move(ds->space),
                                      std::move(ds->library))
                    .ok());
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
    delete session_;
    session_ = nullptr;
  }

  static KgSession* session_;
  static std::vector<QueryWithGold>* workload_;
};

KgSession* ApiDifferentialTest::session_ = nullptr;
std::vector<QueryWithGold>* ApiDifferentialTest::workload_ = nullptr;

/// Asserts the facade response mirrors an engine-level match list exactly.
void ExpectBitIdentical(const QueryResponse& response,
                        const std::vector<FinalMatch>& matches,
                        const KnowledgeGraph& graph,
                        const std::string& context) {
  ASSERT_EQ(response.answers.size(), matches.size()) << context;
  for (size_t i = 0; i < matches.size(); ++i) {
    EXPECT_EQ(response.answers[i].id, matches[i].pivot_match)
        << context << " rank " << i;
    EXPECT_EQ(response.answers[i].score, matches[i].score)
        << context << " rank " << i;
    EXPECT_EQ(response.answers[i].name,
              std::string(graph.NodeName(matches[i].pivot_match)))
        << context << " rank " << i;
  }
}

// SGQ: session vs direct QueryService vs direct SgqEngine, over the full
// mixed workload, via both the QueryGraph and (where expressible) requests
// built from the same graph.
TEST_F(ApiDifferentialTest, SgqBitIdenticalToServiceAndEngine) {
  const KnowledgeGraph* graph = session_->graph("dbpedia");
  const PredicateSpace* space = session_->space("dbpedia");
  const TransformationLibrary* library = session_->library("dbpedia");
  ASSERT_NE(graph, nullptr);

  SgqEngine direct(graph, space, library);
  QueryService standalone(graph, space, library, {.num_threads = 4});

  RequestOptions api_options;
  api_options.k = 25;
  const EngineOptions engine_options = ToEngineOptions(api_options);

  for (const QueryWithGold& q : *workload_) {
    QueryRequest request;
    request.dataset = "dbpedia";
    request.query_graph = q.query;
    request.options = api_options;

    auto api = session_->Query(request);
    auto service = standalone.Query(q.query, engine_options);
    auto engine = direct.Query(q.query, engine_options);

    ASSERT_EQ(api.ok(), engine.ok()) << q.description;
    ASSERT_EQ(service.ok(), engine.ok()) << q.description;
    if (!engine.ok()) continue;
    ExpectBitIdentical(api.ValueOrDie(), engine.ValueOrDie().matches, *graph,
                       q.description + " (vs engine)");
    ExpectBitIdentical(api.ValueOrDie(), service.ValueOrDie().matches,
                       *graph, q.description + " (vs service)");
  }
}

// The batch path must go through the same machinery: answers identical to
// the sync facade path for the whole workload.
TEST_F(ApiDifferentialTest, BatchBitIdenticalToSync) {
  std::vector<QueryRequest> requests;
  for (const QueryWithGold& q : *workload_) {
    QueryRequest request;
    request.dataset = "dbpedia";
    request.query_graph = q.query;
    request.options.k = 20;
    requests.push_back(std::move(request));
  }
  std::vector<Result<QueryResponse>> batch = session_->QueryBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    auto sync = session_->Query(requests[i]);
    ASSERT_EQ(batch[i].ok(), sync.ok()) << (*workload_)[i].description;
    if (!sync.ok()) continue;
    EXPECT_EQ(batch[i].ValueOrDie().answers, sync.ValueOrDie().answers)
        << (*workload_)[i].description;
  }
}

// TBQ with a generous bound is exact and deterministic (Lemma 7 territory):
// the facade must be bit-identical to a direct SgqEngine run, and both must
// equal the unbounded SGQ answers.
TEST_F(ApiDifferentialTest, TbqBitIdenticalToDirectEngine) {
  const KnowledgeGraph* graph = session_->graph("car");
  const PredicateSpace* space = session_->space("car");
  const TransformationLibrary* library = session_->library("car");
  ASSERT_NE(graph, nullptr);

  SgqEngine direct(graph, space, library);
  RequestOptions api_options;
  api_options.k = 15;
  api_options.time_bound_micros = 30'000'000;  // generous: nothing stops
  const TimeBoundedOptions tbq_options = ToTimeBoundedOptions(api_options);

  for (int variant = 1; variant <= 4; ++variant) {
    const QueryGraph query = MakeQ117Variant(variant);
    QueryRequest request;
    request.dataset = "car";
    request.mode = QueryMode::kTbq;
    request.query_graph = query;
    request.options = api_options;

    auto api = session_->Query(request);
    auto engine = direct.Query(query, tbq_options);
    ASSERT_EQ(api.ok(), engine.ok()) << "variant " << variant;
    if (!engine.ok()) continue;
    ASSERT_FALSE(engine.ValueOrDie().stopped_by_time);
    EXPECT_FALSE(api.ValueOrDie().stopped_by_time);
    ExpectBitIdentical(api.ValueOrDie(), engine.ValueOrDie().matches,
                       *graph, "TBQ variant " + std::to_string(variant));

    // And the generous TBQ answers equal unbounded SGQ exactly.
    QueryRequest sgq_request = request;
    sgq_request.mode = QueryMode::kSgq;
    auto sgq = session_->Query(sgq_request);
    ASSERT_TRUE(sgq.ok());
    EXPECT_EQ(api.ValueOrDie().answers, sgq.ValueOrDie().answers)
        << "TBQ != SGQ, variant " << variant;
  }
}

// Warm facade caches must not change answers: rerunning the workload
// through the session reproduces the cold answers exactly.
TEST_F(ApiDifferentialTest, WarmCachesDoNotChangeAnswers) {
  std::vector<std::vector<AnswerDto>> cold;
  for (const QueryWithGold& q : *workload_) {
    QueryRequest request;
    request.dataset = "dbpedia";
    request.query_graph = q.query;
    request.options.k = 20;
    auto r = session_->Query(request);
    ASSERT_TRUE(r.ok()) << q.description;
    cold.push_back(r.ValueOrDie().answers);
  }
  for (size_t i = 0; i < workload_->size(); ++i) {
    QueryRequest request;
    request.dataset = "dbpedia";
    request.query_graph = (*workload_)[i].query;
    request.options.k = 20;
    auto r = session_->Query(request);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.ValueOrDie().answers, cold[i])
        << (*workload_)[i].description;
  }
}

// Text-built and graph-built requests for the same intent are identical:
// the parser is a front end, not a different query.
TEST_F(ApiDifferentialTest, TextAndGraphRequestsAgree) {
  // Q117 variant 4 in text form: exact type, exact predicate.
  QueryRequest text_request;
  text_request.dataset = "car";
  text_request.query_text = "?Automobile assembly Germany";
  text_request.options.k = 20;

  QueryRequest graph_request = text_request;
  graph_request.query_text.clear();
  graph_request.query_graph = MakeQ117Variant(4);

  auto from_text = session_->Query(text_request);
  auto from_graph = session_->Query(graph_request);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  ASSERT_TRUE(from_graph.ok()) << from_graph.status().ToString();
  EXPECT_EQ(from_text.ValueOrDie().answers,
            from_graph.ValueOrDie().answers);
}

}  // namespace
}  // namespace kgsearch
