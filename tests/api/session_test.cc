#include "api/session.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kg/triple_io.h"

namespace kgsearch {
namespace {

/// The Figure 2 miniature: cars connected to Germany via semantically
/// equivalent paths, plus a designer/nationality distractor.
struct CarParts {
  std::unique_ptr<KnowledgeGraph> graph;
  std::unique_ptr<PredicateSpace> space;
  TransformationLibrary library;
};

CarParts MakeCarParts() {
  CarParts parts;
  parts.graph = std::make_unique<KnowledgeGraph>();
  KnowledgeGraph& g = *parts.graph;
  NodeId audi = g.AddNode("Audi_TT", "Automobile");
  NodeId bmw = g.AddNode("BMW_320", "Automobile");
  NodeId kia = g.AddNode("KIA_K5", "Automobile");
  NodeId germany = g.AddNode("Germany", "Country");
  NodeId regensburg = g.AddNode("Regensburg", "City");
  NodeId schreyer = g.AddNode("Peter_Schreyer", "Person");
  g.AddEdge(bmw, "assembly", germany);
  g.AddEdge(audi, "assembly", regensburg);
  g.AddEdge(regensburg, "country", germany);
  g.AddEdge(kia, "designer", schreyer);
  g.AddEdge(schreyer, "nationality", germany);
  g.InternPredicate("product");
  g.Finalize();

  auto vec = [](double cosine) {
    return FloatVec{
        static_cast<float>(cosine),
        static_cast<float>(std::sqrt(std::max(0.0, 1.0 - cosine * cosine)))};
  };
  std::vector<FloatVec> vectors(g.NumPredicates());
  std::vector<std::string> names(g.NumPredicates());
  auto set_vec = [&](const char* predicate, double cosine) {
    PredicateId p = g.FindPredicate(predicate);
    vectors[p] = vec(cosine);
    names[p] = predicate;
  };
  set_vec("product", 1.0);
  set_vec("assembly", 0.98);
  set_vec("country", 0.91);
  set_vec("designer", 0.55);
  set_vec("nationality", 0.50);
  parts.space =
      std::make_unique<PredicateSpace>(std::move(vectors), std::move(names));

  parts.library.AddTypeSynonym("Car", "Automobile");
  parts.library.AddNameAbbreviation("GER", "Germany");
  return parts;
}

Status RegisterCars(KgSession* session, const std::string& name = "cars") {
  CarParts parts = MakeCarParts();
  return session->RegisterDataset(name, std::move(parts.graph),
                                  std::move(parts.space),
                                  std::move(parts.library));
}

QueryRequest CarRequest(const std::string& text) {
  QueryRequest request;
  request.dataset = "cars";
  request.query_text = text;
  request.options.k = 5;
  request.options.tau = 0.6;
  request.options.n_hat = 3;
  return request;
}

std::vector<std::string> AnswerNames(const QueryResponse& response) {
  std::vector<std::string> out;
  for (const AnswerDto& a : response.answers) out.push_back(a.name);
  return out;
}

TEST(KgSessionRegistryTest, RegisterListAndIntrospect) {
  KgSession session;
  EXPECT_FALSE(session.HasDataset("cars"));
  ASSERT_TRUE(RegisterCars(&session).ok());
  EXPECT_TRUE(session.HasDataset("cars"));

  const std::vector<DatasetInfo> listed = session.ListDatasets();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].name, "cars");
  EXPECT_EQ(listed[0].nodes, 6u);
  EXPECT_EQ(listed[0].edges, 5u);
  EXPECT_EQ(listed[0].predicates, 5u);

  EXPECT_NE(session.service("cars"), nullptr);
  EXPECT_NE(session.graph("cars"), nullptr);
  EXPECT_NE(session.space("cars"), nullptr);
  EXPECT_NE(session.library("cars"), nullptr);
  EXPECT_EQ(session.service("nope"), nullptr);
  EXPECT_EQ(session.graph("nope"), nullptr);
}

TEST(KgSessionRegistryTest, DuplicateAndInvalidRegistrations) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  Status duplicate = RegisterCars(&session);
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);

  CarParts parts = MakeCarParts();
  EXPECT_EQ(session
                .RegisterDataset("", std::move(parts.graph),
                                 std::move(parts.space), {})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.RegisterDataset("x", nullptr, nullptr, {}).code(),
            StatusCode::kInvalidArgument);

  // Unfinalized graphs are rejected up front.
  CarParts parts2 = MakeCarParts();
  auto unfinalized = std::make_unique<KnowledgeGraph>();
  unfinalized->AddNode("a", "T");
  EXPECT_EQ(session
                .RegisterDataset("y", std::move(unfinalized),
                                 std::move(parts2.space), {})
                .code(),
            StatusCode::kInvalidArgument);
}

// A space whose predicate names disagree with the graph's ids would answer
// with the wrong semantics and could never be saved (SaveSnapshot checks
// names), so registration rejects it just as the snapshot paths do.
TEST(KgSessionRegistryTest, SpaceWithSwappedPredicateNamesIsRejected) {
  KgSession session;
  for (const bool replace : {false, true}) {
    CarParts parts = MakeCarParts();
    const PredicateSpace& good = *parts.space;
    std::vector<FloatVec> vectors;
    std::vector<std::string> names;
    for (PredicateId p = 0; p < good.NumPredicates(); ++p) {
      vectors.push_back(good.Vector(p));
      names.push_back(good.PredicateName(p));
    }
    std::swap(names[0], names[1]);
    auto swapped = std::make_unique<PredicateSpace>(std::move(vectors),
                                                    std::move(names));
    const Status st =
        replace ? session.ReplaceDataset("cars", std::move(parts.graph),
                                         std::move(swapped),
                                         std::move(parts.library))
                : session.RegisterDataset("cars", std::move(parts.graph),
                                          std::move(swapped),
                                          std::move(parts.library));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_FALSE(session.HasDataset("cars"));
  }
}

TEST(KgSessionQueryTest, TextQueryThroughLibraryRecords) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  // ?Car needs the type synonym, GER the abbreviation, product the
  // semantic space — the full pipeline through one request.
  auto result = session.Query(CarRequest("?Car product GER"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryResponse& response = result.ValueOrDie();
  EXPECT_EQ(AnswerNames(response),
            (std::vector<std::string>{"BMW_320", "Audi_TT"}));
  EXPECT_EQ(response.answers[0].type, "Automobile");
  EXPECT_GT(response.answers[0].score, response.answers[1].score);
  EXPECT_EQ(response.dataset, "cars");
  EXPECT_EQ(response.mode, QueryMode::kSgq);
  EXPECT_EQ(response.stats.subqueries, 1u);
  EXPECT_GT(response.stats.expanded, 0u);
  EXPECT_GE(response.timings.total_ms, response.timings.engine_ms);
}

TEST(KgSessionQueryTest, ExplicitQueryGraphWinsOverText) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  QueryRequest request = CarRequest("?Car designer Nobody");
  QueryGraph graph_query;
  int car = graph_query.AddTargetNode("Automobile");
  int ger = graph_query.AddSpecificNode("Country", "Germany");
  graph_query.AddEdge(car, ger, "assembly");
  request.query_graph = graph_query;

  auto result = session.Query(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(AnswerNames(result.ValueOrDie())[0], "BMW_320");
  // No text was parsed on the graph path.
  EXPECT_EQ(result.ValueOrDie().timings.parse_ms, 0.0);
}

TEST(KgSessionQueryTest, TbqModeAnswersWithGenerousBound) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  QueryRequest request = CarRequest("?Car product GER");
  request.mode = QueryMode::kTbq;
  request.options.time_bound_micros = 10'000'000;  // generous: exact answers
  auto result = session.Query(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(AnswerNames(result.ValueOrDie()),
            (std::vector<std::string>{"BMW_320", "Audi_TT"}));
  EXPECT_FALSE(result.ValueOrDie().stopped_by_time);
  EXPECT_EQ(result.ValueOrDie().mode, QueryMode::kTbq);
}

TEST(KgSessionQueryTest, ErrorPathsReturnStatusNotAbort) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());

  EXPECT_EQ(session.Query(CarRequest("?Car product GER;")).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(session.Query(CarRequest("")).status().code(),
            StatusCode::kInvalidArgument);

  QueryRequest unknown = CarRequest("?Car product GER");
  unknown.dataset = "missing";
  EXPECT_EQ(session.Query(unknown).status().code(), StatusCode::kNotFound);

  QueryRequest bad_version = CarRequest("?Car product GER");
  bad_version.version = 99;
  EXPECT_EQ(session.Query(bad_version).status().code(),
            StatusCode::kInvalidArgument);

  // A malformed explicit QueryGraph hits the Validate() boundary check.
  QueryRequest malformed = CarRequest("");
  QueryGraph no_edges;
  no_edges.AddTargetNode("Automobile");
  malformed.query_graph = no_edges;
  EXPECT_EQ(session.Query(malformed).status().code(),
            StatusCode::kInvalidArgument);

  QueryGraph disconnected;
  int a = disconnected.AddTargetNode("Automobile");
  int b = disconnected.AddSpecificNode("Country", "Germany");
  disconnected.AddEdge(a, b, "assembly");
  disconnected.AddTargetNode("Person");  // isolated node
  QueryRequest disconnected_request = CarRequest("");
  disconnected_request.query_graph = disconnected;
  EXPECT_EQ(session.Query(disconnected_request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(KgSessionQueryTest, SubmitAndBatchMatchSync) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  const QueryRequest request = CarRequest("?Car product GER");
  auto sync = session.Query(request);
  ASSERT_TRUE(sync.ok());

  auto async = session.Submit(request).get();
  ASSERT_TRUE(async.ok());
  EXPECT_EQ(AnswerNames(async.ValueOrDie()),
            AnswerNames(sync.ValueOrDie()));

  // A batch mixing good and bad requests: results in order, failures
  // isolated per entry.
  std::vector<QueryRequest> batch{request, CarRequest("?Car product GER;"),
                                  request};
  std::vector<Result<QueryResponse>> results = session.QueryBatch(batch);
  ASSERT_EQ(results.size(), 3u);
  // Every batch entry has started (and finished) by now.
  EXPECT_EQ(session.Stats("cars").ValueOrDie().queue_depth, 0u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(AnswerNames(results[0].ValueOrDie()),
            AnswerNames(sync.ValueOrDie()));
  EXPECT_EQ(AnswerNames(results[2].ValueOrDie()),
            AnswerNames(sync.ValueOrDie()));
}

TEST(KgSessionQueryTest, QueryJsonWireRoundTrip) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  const std::string response_json = session.QueryJson(
      EncodeQueryRequestJson(CarRequest("?Car product GER")));
  auto response = DecodeQueryResponseJson(response_json);
  ASSERT_TRUE(response.ok()) << response_json;
  EXPECT_EQ(AnswerNames(response.ValueOrDie()),
            (std::vector<std::string>{"BMW_320", "Audi_TT"}));

  // Malformed request documents come back as error documents.
  const std::string parse_error = session.QueryJson("{not json");
  auto parsed = JsonValue::Parse(parse_error);
  ASSERT_TRUE(parsed.ok()) << parse_error;
  ASSERT_NE(parsed.ValueOrDie().Find("error"), nullptr);
  EXPECT_EQ(parsed.ValueOrDie().Find("error")->Find("code")->string_value(),
            "ParseError");

  const std::string not_found = session.QueryJson(
      "{\"v\":1,\"dataset\":\"missing\",\"query_text\":\"?A p B\"}");
  auto nf = JsonValue::Parse(not_found);
  ASSERT_TRUE(nf.ok());
  EXPECT_EQ(nf.ValueOrDie().Find("error")->Find("code")->string_value(),
            "NotFound");

  // A hop bound past the search's 16-bit counters is refused, not wrapped.
  const std::string long_hops = session.QueryJson(
      "{\"v\":1,\"dataset\":\"cars\",\"query_text\":\"?Car product GER\","
      "\"options\":{\"n_hat\":70000}}");
  auto lh = JsonValue::Parse(long_hops);
  ASSERT_TRUE(lh.ok());
  ASSERT_NE(lh.ValueOrDie().Find("error"), nullptr) << long_hops;
  EXPECT_EQ(lh.ValueOrDie().Find("error")->Find("code")->string_value(),
            "InvalidArgument");
}

// n̂ is off the wire with no upper bound. Past the range where the Eq. 1
// cost max(avg degree, 2)^(n̂ * path length) fits a double, every cover
// costs +inf and the decomposer can rank none: the refusal names n_hat,
// not a missing cover. Below that range the request answers.
TEST(KgSessionQueryTest, NHatPastTheCostRangeIsBlamedOnNHat) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  const auto request_with_n_hat = [](int n_hat) {
    return "{\"v\":1,\"dataset\":\"cars\",\"query_text\":"
           "\"?Car product GER\",\"options\":{\"n_hat\":" +
           std::to_string(n_hat) + "}}";
  };

  const std::string overflow = session.QueryJson(request_with_n_hat(5000));
  auto parsed = JsonValue::Parse(overflow);
  ASSERT_TRUE(parsed.ok()) << overflow;
  const JsonValue* error = parsed.ValueOrDie().Find("error");
  ASSERT_NE(error, nullptr) << overflow;
  EXPECT_EQ(error->Find("code")->string_value(), "InvalidArgument");
  EXPECT_NE(error->Find("message")->string_value().find("n_hat"),
            std::string::npos)
      << overflow;

  const std::string answered = session.QueryJson(request_with_n_hat(1000));
  auto response = DecodeQueryResponseJson(answered);
  ASSERT_TRUE(response.ok()) << answered;
  EXPECT_EQ(AnswerNames(response.ValueOrDie()),
            (std::vector<std::string>{"BMW_320", "Audi_TT"}));
}

/// Parks every worker of the session's shared pool until Release() is
/// called; the constructor returns once all workers are parked, so
/// subsequent submissions verifiably stay queued.
struct SessionPoolBlocker {
  explicit SessionPoolBlocker(KgSession* session,
                              const std::string& dataset) {
    ThreadPool* pool = session->service(dataset)->executor();
    const size_t workers = pool->num_threads();
    std::vector<std::future<void>> running;
    for (size_t i = 0; i < workers; ++i) {
      auto started = std::make_shared<std::promise<void>>();
      running.push_back(started->get_future());
      done.push_back(pool->Submit([this, started] {
        started->set_value();
        gate_future.wait();
      }));
    }
    for (auto& r : running) r.wait();
  }
  void Release() {
    gate.set_value();
    for (auto& d : done) d.wait();
  }
  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  std::vector<std::future<void>> done;
};

TEST(KgSessionOverloadTest, SubmitAdmissionIsDecidedAtSubmissionTime) {
  KgSessionOptions options;
  options.num_threads = 2;
  options.max_in_flight = 1;
  options.max_queued = 1;
  KgSession session(options);
  ASSERT_TRUE(RegisterCars(&session).ok());

  SessionPoolBlocker blocker(&session, "cars");
  // Async capacity = 1 + 1 = 2. With every worker parked, the first two
  // submissions hold their slots in the session queue; the third must
  // come back rejected immediately — before any queueing.
  auto f1 = session.Submit(CarRequest("?Car product GER"));
  auto f2 = session.Submit(CarRequest("?Car product GER"));
  auto f3 = session.Submit(CarRequest("?Car product GER"));
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "over-capacity submission must fail fast, not queue";
  auto rejected = f3.get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  blocker.Release();
  ASSERT_TRUE(f1.get().ok());
  ASSERT_TRUE(f2.get().ok());
  const ServiceStatsSnapshot stats = session.Stats("cars").ValueOrDie();
  EXPECT_EQ(stats.queries_rejected, 1u);
  EXPECT_EQ(stats.queries_total, 2u);
  EXPECT_EQ(stats.admitted_outstanding, 0u);
}

// A dataset's queue_depth counts its admitted submissions that wait for a
// pool worker — the wire path's queue, since the TCP server sends every
// request through Submit.
TEST(KgSessionQueueDepthTest, CountsSubmissionsWaitingForAWorker) {
  KgSessionOptions options;
  options.num_threads = 1;
  KgSession session(options);
  ASSERT_TRUE(RegisterCars(&session).ok());

  SessionPoolBlocker blocker(&session, "cars");
  auto f1 = session.Submit(CarRequest("?Car product GER"));
  auto f2 = session.Submit(CarRequest("?Car product GER"));
  const ServiceStatsSnapshot waiting = session.Stats("cars").ValueOrDie();
  EXPECT_EQ(waiting.queue_depth, 2u);
  EXPECT_EQ(waiting.admitted_outstanding, 2u);
  EXPECT_EQ(waiting.in_flight, 0u);

  blocker.Release();
  ASSERT_TRUE(f1.get().ok());
  ASSERT_TRUE(f2.get().ok());
  const ServiceStatsSnapshot drained = session.Stats("cars").ValueOrDie();
  EXPECT_EQ(drained.queue_depth, 0u);
  EXPECT_EQ(drained.admitted_outstanding, 0u);
}

TEST(KgSessionOverloadTest, BudgetSpentInQueueIsCountedByTheService) {
  ManualClock clock(1'000'000);
  KgSessionOptions options;
  options.num_threads = 2;
  KgSession session(options, &clock);
  ASSERT_TRUE(RegisterCars(&session).ok());

  SessionPoolBlocker blocker(&session, "cars");
  QueryRequest request = CarRequest("?Car product GER");
  request.deadline_ms = 5;  // stamped now; burns away while queued
  auto future = session.Submit(request);
  clock.AdvanceMicros(10'000);
  blocker.Release();
  auto r = future.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // The expiry is the service's outcome, not a facade short-circuit, so
  // the per-dataset overload counters record it.
  const ServiceStatsSnapshot stats = session.Stats("cars").ValueOrDie();
  EXPECT_EQ(stats.queries_deadline_exceeded, 1u);
  EXPECT_EQ(stats.queries_failed, 1u);
}

TEST(KgSessionOverloadTest, UntrustedPriorityIsClampedToNormal) {
  // A session serving untrusted wire clients can refuse to honor
  // "priority": "high", so self-promoted requests cannot bypass the
  // admission limits the operator configured.
  KgSessionOptions options;
  options.num_threads = 2;
  options.max_in_flight = 1;
  options.max_queued = 0;
  options.honor_request_priority = false;
  KgSession session(options);
  ASSERT_TRUE(RegisterCars(&session).ok());

  SessionPoolBlocker blocker(&session, "cars");
  auto admitted = session.Submit(CarRequest("?Car product GER"));
  QueryRequest promoted = CarRequest("?Car product GER");
  promoted.priority = RequestPriority::kHigh;
  auto rejected_future = session.Submit(promoted);
  ASSERT_EQ(rejected_future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto rejected = rejected_future.get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  blocker.Release();
  ASSERT_TRUE(admitted.get().ok());
  EXPECT_EQ(session.Stats("cars").ValueOrDie().queries_rejected, 1u);
}

TEST(KgSessionOverloadTest, TrustedPriorityStillBypassesLimits) {
  // The default (in-process callers): kHigh is honored and admitted past
  // the limits.
  KgSessionOptions options;
  options.num_threads = 2;
  options.max_in_flight = 1;
  options.max_queued = 0;
  KgSession session(options);
  ASSERT_TRUE(RegisterCars(&session).ok());

  SessionPoolBlocker blocker(&session, "cars");
  auto first = session.Submit(CarRequest("?Car product GER"));
  QueryRequest promoted = CarRequest("?Car product GER");
  promoted.priority = RequestPriority::kHigh;
  auto second = session.Submit(promoted);  // over limit, but high priority
  blocker.Release();
  ASSERT_TRUE(first.get().ok());
  ASSERT_TRUE(second.get().ok());
  EXPECT_EQ(session.Stats("cars").ValueOrDie().queries_rejected, 0u);
}

TEST(KgSessionOverloadTest, GenerousDeadlineAndPriorityAreEchoedNotBinding) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  const QueryRequest plain = CarRequest("?Car product GER");
  auto reference = session.Query(plain);
  ASSERT_TRUE(reference.ok());

  QueryRequest bounded = plain;
  bounded.deadline_ms = 3'600'000;  // one hour: never binds
  bounded.priority = RequestPriority::kHigh;
  CancelToken token;  // never cancelled
  auto r = session.Query(bounded, &token);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(AnswerNames(r.ValueOrDie()),
            AnswerNames(reference.ValueOrDie()));
  EXPECT_EQ(r.ValueOrDie().deadline_ms, 3'600'000);
  EXPECT_EQ(r.ValueOrDie().priority, RequestPriority::kHigh);
  // The unconstrained response advertises the defaults.
  EXPECT_EQ(reference.ValueOrDie().deadline_ms, 0);
  EXPECT_EQ(reference.ValueOrDie().priority, RequestPriority::kNormal);
}

TEST(KgSessionOverloadTest, CancelledTokenSurfacesThroughFacade) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  CancelToken token;
  token.Cancel();
  // Sync, async, and batch all observe the revocation and surface
  // kCancelled; the dataset's serving counters prove it reached the
  // service layer rather than being short-circuited in the facade only.
  auto sync = session.Query(CarRequest("?Car product GER"), &token);
  ASSERT_FALSE(sync.ok());
  EXPECT_EQ(sync.status().code(), StatusCode::kCancelled);

  auto async = session.Submit(CarRequest("?Car product GER"), &token).get();
  ASSERT_FALSE(async.ok());
  EXPECT_EQ(async.status().code(), StatusCode::kCancelled);

  std::vector<Result<QueryResponse>> batch = session.QueryBatch(
      {CarRequest("?Car product GER"), CarRequest("?Car product GER")},
      &token);
  ASSERT_EQ(batch.size(), 2u);
  for (const auto& r : batch) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }
  // All four outcomes were decided (and counted) by the service layer.
  EXPECT_EQ(session.Stats("cars").ValueOrDie().queries_cancelled, 4u);
}

TEST(KgSessionOverloadTest, NegativeDeadlineIsInvalidEverywhere) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  QueryRequest request = CarRequest("?Car product GER");
  request.deadline_ms = -1;
  EXPECT_EQ(session.Query(request).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Submit(request).get().status().code(),
            StatusCode::kInvalidArgument);
  // The wire decoder rejects it before execution, as an error document.
  const std::string doc = session.QueryJson(
      "{\"v\":1,\"dataset\":\"cars\",\"query_text\":\"?Car product GER\","
      "\"deadline_ms\":-1}");
  auto parsed = JsonValue::Parse(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.ValueOrDie().Find("error")->Find("code")->string_value(),
            "InvalidArgument");
}

TEST(KgSessionOverloadTest, AdmissionLimitsPropagateToDatasetServices) {
  KgSessionOptions options;
  options.max_in_flight = 3;
  options.max_queued = 5;
  KgSession session(options);
  ASSERT_TRUE(RegisterCars(&session).ok());
  ASSERT_TRUE(RegisterCars(&session, "cars2").ok());
  for (const char* name : {"cars", "cars2"}) {
    const QueryService* service = session.service(name);
    ASSERT_NE(service, nullptr);
    EXPECT_TRUE(service->admission().enabled()) << name;
    EXPECT_EQ(service->admission().max_in_flight(), 3u) << name;
    EXPECT_EQ(service->admission().max_queued(), 5u) << name;
  }
  // Sequential traffic never overlaps, so nothing is rejected.
  ASSERT_TRUE(session.Query(CarRequest("?Car product GER")).ok());
  EXPECT_EQ(session.Stats("cars").ValueOrDie().queries_rejected, 0u);
}

TEST(KgSessionQueryTest, ParseQueryUsesDatasetGraphForTypes) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  auto parsed = session.ParseQuery("cars", "?Automobile assembly Germany");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.ValueOrDie().node(1).type, "Country");
  EXPECT_EQ(session.ParseQuery("missing", "?A p B").status().code(),
            StatusCode::kNotFound);
}

TEST(KgSessionQueryTest, StatsCountQueriesPerDataset) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  ASSERT_TRUE(session.Query(CarRequest("?Car product GER")).ok());
  ASSERT_TRUE(session.Query(CarRequest("?Car product GER")).ok());
  auto stats = session.Stats("cars");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.ValueOrDie().queries_total, 2u);
  EXPECT_EQ(stats.ValueOrDie().sgq_queries, 2u);
  EXPECT_EQ(session.Stats("missing").status().code(), StatusCode::kNotFound);
}

TEST(KgSessionLoadTest, LoadsTsvGraphAndTrainsTransE) {
  const std::string dir = ::testing::TempDir();
  const std::string graph_path = dir + "/session_test_kg.tsv";
  // A small but trainable graph: a few cars assembled in two countries.
  std::string tsv;
  for (int i = 0; i < 6; ++i) {
    const std::string car = "Car_" + std::to_string(i);
    tsv += car + "\ta\tAutomobile\n";
    tsv += car + "\tassembly\t" + (i % 2 == 0 ? "Germany" : "France") + "\n";
  }
  tsv += "Germany\ta\tCountry\nFrance\ta\tCountry\n";
  ASSERT_TRUE(WriteStringToFile(graph_path, tsv).ok());

  const std::string library_path = dir + "/session_test_lib.tsv";
  TransformationLibrary library;
  library.AddNameAbbreviation("GER", "Germany");
  ASSERT_TRUE(WriteStringToFile(library_path, library.Serialize()).ok());

  KgSession session;
  DatasetLoadOptions load;
  load.graph_path = graph_path;
  load.library_path = library_path;
  load.transe_config.dim = 8;
  load.transe_config.epochs = 10;
  ASSERT_TRUE(session.LoadDataset("disk", load).ok());

  QueryRequest request;
  request.dataset = "disk";
  request.query_text = "?Automobile assembly GER";
  request.options.tau = 0.5;
  auto result = session.Query(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The abbreviation resolves through the loaded library; the exact-match
  // edge guarantees the German cars are answered.
  EXPECT_GE(result.ValueOrDie().answers.size(), 3u);

  // Error paths: duplicate name, missing file, empty path.
  EXPECT_EQ(session.LoadDataset("disk", load).code(),
            StatusCode::kAlreadyExists);
  DatasetLoadOptions missing = load;
  missing.graph_path = dir + "/does_not_exist.tsv";
  EXPECT_EQ(session.LoadDataset("missing", missing).code(),
            StatusCode::kIOError);
  DatasetLoadOptions empty;
  EXPECT_EQ(session.LoadDataset("empty", empty).code(),
            StatusCode::kInvalidArgument);
}

TEST(KgSessionTeardownTest, DestructionDrainsInFlightSubmissions) {
  // The WaitGroup-drained destructor path: destroy the session while async
  // requests are still queued/running. The dtor must block until every
  // task finished (no use-after-free; TSan covers the ordering), and every
  // future must be fulfilled afterwards.
  std::vector<std::future<Result<QueryResponse>>> futures;
  {
    KgSessionOptions options;
    options.num_threads = 2;
    KgSession session(options);
    ASSERT_TRUE(RegisterCars(&session).ok());
    for (int i = 0; i < 16; ++i) {
      futures.push_back(session.Submit(CarRequest("?Car product GER")));
    }
    // Session destroyed here with most submissions still pending.
  }
  size_t answered = 0;
  for (auto& fut : futures) {
    auto r = fut.get();  // must not throw broken_promise
    if (r.ok()) {
      EXPECT_EQ(r.ValueOrDie().answers.size(), 2u);
      ++answered;
    }
  }
  // The destructor drains, it does not cancel: everything submitted before
  // teardown ran to completion.
  EXPECT_EQ(answered, futures.size());
}

TEST(KgSessionMultiDatasetTest, DatasetsShareOnePoolButNotCaches) {
  KgSessionOptions options;
  options.num_threads = 3;
  KgSession session(options);
  ASSERT_TRUE(RegisterCars(&session, "a").ok());
  ASSERT_TRUE(RegisterCars(&session, "b").ok());
  EXPECT_EQ(session.num_threads(), 3u);
  // Both services run on the session's pool.
  EXPECT_EQ(session.service("a")->num_threads(), 3u);
  EXPECT_EQ(session.service("b")->num_threads(), 3u);

  QueryRequest request = CarRequest("?Car product GER");
  request.dataset = "a";
  ASSERT_TRUE(session.Query(request).ok());
  request.dataset = "b";
  ASSERT_TRUE(session.Query(request).ok());
  // Stats are per dataset.
  EXPECT_EQ(session.Stats("a").ValueOrDie().queries_total, 1u);
  EXPECT_EQ(session.Stats("b").ValueOrDie().queries_total, 1u);
}

}  // namespace
}  // namespace kgsearch
