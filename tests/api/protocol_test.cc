#include "api/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "api/query_text.h"

namespace kgsearch {
namespace {

QueryGraph MakeChainQuery() {
  return ParseQueryText("?Automobile engine ?Device; ?Device made_in Germany")
      .ValueOrDie();
}

QueryRequest MakeFullRequest() {
  QueryRequest request;
  request.dataset = "dbpedia";
  request.mode = QueryMode::kTbq;
  request.query_graph = MakeChainQuery();
  request.options.k = 25;
  request.options.tau = 0.65;
  request.options.n_hat = 3;
  request.options.pivot_strategy = PivotStrategy::kRandom;
  request.options.seed = 7;
  request.options.dedup = DedupMode::kExactState;
  request.options.max_expansions = 1'000'000;
  request.options.budget_factor = 5;
  request.options.max_retry_rounds = 1;
  request.options.matches_per_target = 2;
  request.options.time_bound_micros = 50'000;
  request.options.alert_ratio = 0.75;
  request.options.per_match_assembly_micros = 2.5;
  request.options.match_cap = 128;
  request.options.stop_check_interval = 32;
  request.deadline_ms = 750;
  request.priority = RequestPriority::kHigh;
  return request;
}

QueryResponse MakeFullResponse() {
  QueryResponse response;
  response.dataset = "dbpedia";
  response.mode = QueryMode::kTbq;
  response.stopped_by_time = true;
  response.answers.push_back(AnswerDto{12, "Audi TT", "Automobile", 1.961});
  response.answers.push_back(AnswerDto{7, "BMW 320", "Automobile", 1.875});
  response.timings = ResponseTimings{0.031, 4.25, 4.5};
  response.stats.subqueries = 2;
  response.stats.expanded = 1234;
  response.stats.generated = 77;
  response.stats.ta_sorted_accesses = 40;
  response.stats.ta_early_terminated = true;
  response.deadline_ms = 750;
  response.priority = RequestPriority::kHigh;
  return response;
}

TEST(QueryModeTest, NamesRoundTrip) {
  EXPECT_STREQ(QueryModeName(QueryMode::kSgq), "sgq");
  EXPECT_STREQ(QueryModeName(QueryMode::kTbq), "tbq");
  EXPECT_EQ(ParseQueryModeName("sgq").ValueOrDie(), QueryMode::kSgq);
  EXPECT_EQ(ParseQueryModeName("tbq").ValueOrDie(), QueryMode::kTbq);
  EXPECT_FALSE(ParseQueryModeName("SGQ").ok());
  EXPECT_FALSE(ParseQueryModeName("").ok());
}

TEST(RequestOptionsTest, DefaultsMatchEngineDefaults) {
  const RequestOptions options;
  const EngineOptions engine = ToEngineOptions(options);
  const EngineOptions engine_defaults;
  EXPECT_EQ(engine.k, engine_defaults.k);
  EXPECT_EQ(engine.tau, engine_defaults.tau);
  EXPECT_EQ(engine.n_hat, engine_defaults.n_hat);
  EXPECT_EQ(engine.pivot_strategy, engine_defaults.pivot_strategy);
  EXPECT_EQ(engine.seed, engine_defaults.seed);
  EXPECT_EQ(engine.budget_factor, engine_defaults.budget_factor);
  EXPECT_EQ(engine.max_retry_rounds, engine_defaults.max_retry_rounds);
  EXPECT_EQ(engine.max_expansions, engine_defaults.max_expansions);
  EXPECT_EQ(engine.dedup, engine_defaults.dedup);
  EXPECT_EQ(engine.matches_per_target, engine_defaults.matches_per_target);
  EXPECT_EQ(engine.threads, engine_defaults.threads);
  EXPECT_EQ(engine.executor, nullptr);

  const TimeBoundedOptions tbq = ToTimeBoundedOptions(options);
  const TimeBoundedOptions tbq_defaults;
  EXPECT_EQ(tbq.k, tbq_defaults.k);
  EXPECT_EQ(tbq.tau, tbq_defaults.tau);
  EXPECT_EQ(tbq.n_hat, tbq_defaults.n_hat);
  EXPECT_EQ(tbq.time_bound_micros, tbq_defaults.time_bound_micros);
  EXPECT_EQ(tbq.alert_ratio, tbq_defaults.alert_ratio);
  EXPECT_EQ(tbq.per_match_assembly_micros,
            tbq_defaults.per_match_assembly_micros);
  EXPECT_EQ(tbq.match_cap, tbq_defaults.match_cap);
  EXPECT_EQ(tbq.stop_check_interval, tbq_defaults.stop_check_interval);
  EXPECT_EQ(tbq.max_expansions, tbq_defaults.max_expansions);
  EXPECT_EQ(tbq.dedup, tbq_defaults.dedup);
}

// Every knob of MakeFullRequest differs from its default, so a conversion
// that dropped one would fail the comparison.
TEST(RequestOptionsTest, ConversionsCarryEveryKnobAndSetTheMode) {
  const RequestOptions options = MakeFullRequest().options;
  ASSERT_FALSE(options == RequestOptions{});

  const EngineOptions engine = ToEngineOptions(options);
  EXPECT_EQ(engine.mode, QueryMode::kSgq);
  EXPECT_TRUE(static_cast<const QueryKnobs&>(engine) == options);

  const TimeBoundedOptions tbq = ToTimeBoundedOptions(options);
  EXPECT_EQ(tbq.mode, QueryMode::kTbq);
  EXPECT_TRUE(static_cast<const QueryKnobs&>(tbq) == options);
}

TEST(QueryGraphCodecTest, RoundTrip) {
  const QueryGraph query = MakeChainQuery();
  auto decoded = DecodeQueryGraph(EncodeQueryGraph(query));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.ValueOrDie() == query);
}

TEST(QueryGraphCodecTest, RejectsMalformedDocuments) {
  // Out-of-range endpoint and self-loop must fail softly, not KG_CHECK.
  auto out_of_range = DecodeQueryGraph(
      JsonValue::Parse("{\"nodes\":[{\"type\":\"A\"},{\"type\":\"B\","
                       "\"name\":\"b\"}],\"edges\":[{\"from\":0,\"to\":5,"
                       "\"predicate\":\"p\"}]}")
          .ValueOrDie());
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);

  auto self_loop = DecodeQueryGraph(
      JsonValue::Parse("{\"nodes\":[{\"type\":\"A\"},{\"type\":\"B\","
                       "\"name\":\"b\"}],\"edges\":[{\"from\":0,\"to\":0,"
                       "\"predicate\":\"p\"}]}")
          .ValueOrDie());
  ASSERT_FALSE(self_loop.ok());
  EXPECT_EQ(self_loop.status().code(), StatusCode::kInvalidArgument);

  auto no_edges = DecodeQueryGraph(
      JsonValue::Parse("{\"nodes\":[{\"type\":\"A\"}]}").ValueOrDie());
  EXPECT_FALSE(no_edges.ok());

  // An explicitly empty "name" is a client bug, not a target node.
  auto empty_name = DecodeQueryGraph(
      JsonValue::Parse("{\"nodes\":[{\"type\":\"A\"},{\"type\":\"B\","
                       "\"name\":\"\"}],\"edges\":[{\"from\":0,\"to\":1,"
                       "\"predicate\":\"p\"}]}")
          .ValueOrDie());
  ASSERT_FALSE(empty_name.ok());
  EXPECT_EQ(empty_name.status().code(), StatusCode::kInvalidArgument);
}

TEST(RequestCodecTest, DefaultRequestRoundTrip) {
  QueryRequest request;
  request.dataset = "car";
  request.query_text = "?Car product GER";
  auto decoded = DecodeQueryRequestJson(EncodeQueryRequestJson(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.ValueOrDie() == request);
}

TEST(RequestCodecTest, Uint64OptionsSurviveTheWire) {
  // seed and max_expansions are uint64; values above int64 range must not
  // wrap negative on the wire (decode(encode(x)) == x holds everywhere).
  QueryRequest request;
  request.dataset = "car";
  request.query_text = "?Car product GER";
  request.options.seed = 1ull << 63;
  request.options.max_expansions = UINT64_MAX;
  auto decoded = DecodeQueryRequestJson(EncodeQueryRequestJson(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().options.seed, 1ull << 63);
  EXPECT_EQ(decoded.ValueOrDie().options.max_expansions, UINT64_MAX);
  EXPECT_TRUE(decoded.ValueOrDie() == request);
}

TEST(RequestCodecTest, FullRequestRoundTrip) {
  const QueryRequest request = MakeFullRequest();
  auto decoded = DecodeQueryRequestJson(EncodeQueryRequestJson(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.ValueOrDie() == request);
  // Byte-stable too: re-encoding the decoded request is identical.
  EXPECT_EQ(EncodeQueryRequestJson(decoded.ValueOrDie()),
            EncodeQueryRequestJson(request));
}

TEST(RequestCodecTest, OmittedOptionsAreDefaults) {
  auto decoded = DecodeQueryRequestJson(
      "{\"v\":1,\"dataset\":\"car\",\"query_text\":\"?Car product GER\"}");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.ValueOrDie().options == RequestOptions{});
  EXPECT_EQ(decoded.ValueOrDie().mode, QueryMode::kSgq);
  EXPECT_FALSE(decoded.ValueOrDie().query_graph.has_value());
}

TEST(RequestCodecTest, DecodeErrors) {
  // Not JSON at all.
  EXPECT_EQ(DecodeQueryRequestJson("{oops").status().code(),
            StatusCode::kParseError);
  // Wrong or missing version.
  EXPECT_FALSE(DecodeQueryRequestJson("{\"dataset\":\"d\"}").ok());
  EXPECT_FALSE(DecodeQueryRequestJson("{\"v\":2,\"dataset\":\"d\"}").ok());
  // Missing dataset.
  EXPECT_FALSE(DecodeQueryRequestJson("{\"v\":1}").ok());
  // Bad mode / bad option values.
  EXPECT_FALSE(
      DecodeQueryRequestJson("{\"v\":1,\"dataset\":\"d\",\"mode\":\"x\"}")
          .ok());
  EXPECT_FALSE(DecodeQueryRequestJson(
                   "{\"v\":1,\"dataset\":\"d\",\"options\":{\"k\":-3}}")
                   .ok());
  EXPECT_FALSE(DecodeQueryRequestJson(
                   "{\"v\":1,\"dataset\":\"d\",\"options\":{\"dedup\":"
                   "\"bogus\"}}")
                   .ok());
  EXPECT_FALSE(DecodeQueryRequestJson(
                   "{\"v\":1,\"dataset\":\"d\",\"options\":3}")
                   .ok());
}

TEST(ResponseCodecTest, RoundTrip) {
  const QueryResponse response = MakeFullResponse();
  auto decoded = DecodeQueryResponseJson(EncodeQueryResponseJson(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.ValueOrDie() == response);
  EXPECT_EQ(EncodeQueryResponseJson(decoded.ValueOrDie()),
            EncodeQueryResponseJson(response));
}

TEST(ResponseCodecTest, EmptyAnswersRoundTrip) {
  QueryResponse response;
  response.dataset = "car";
  auto decoded = DecodeQueryResponseJson(EncodeQueryResponseJson(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.ValueOrDie() == response);
}

TEST(ResponseCodecTest, DecodeErrors) {
  EXPECT_FALSE(DecodeQueryResponseJson("[]").ok());
  EXPECT_FALSE(DecodeQueryResponseJson("{\"v\":1}").ok());  // no dataset
  EXPECT_FALSE(
      DecodeQueryResponseJson("{\"v\":1,\"dataset\":\"d\"}").ok());  // answers
  EXPECT_FALSE(DecodeQueryResponseJson(
                   "{\"v\":9,\"dataset\":\"d\",\"answers\":[]}")
                   .ok());
  // An answer id beyond uint32 must be rejected, not silently truncated.
  auto truncated = DecodeQueryResponseJson(
      "{\"v\":1,\"dataset\":\"d\",\"answers\":[{\"id\":4294967296,"
      "\"name\":\"x\",\"type\":\"T\",\"score\":1.0}]}");
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidArgument);
}

TEST(OverloadFieldsCodecTest, DeadlineAndPriorityRoundTrip) {
  QueryRequest request;
  request.dataset = "car";
  request.query_text = "?Car product GER";
  request.deadline_ms = 1234;
  request.priority = RequestPriority::kHigh;
  auto decoded = DecodeQueryRequestJson(EncodeQueryRequestJson(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().deadline_ms, 1234);
  EXPECT_EQ(decoded.ValueOrDie().priority, RequestPriority::kHigh);
  EXPECT_TRUE(decoded.ValueOrDie() == request);
}

TEST(OverloadFieldsCodecTest, AbsentFieldsDecodeToPreDeadlineDefaults) {
  // A v1 document from a pre-deadline client must keep its old meaning:
  // no deadline, normal priority.
  auto request = DecodeQueryRequestJson(
      "{\"v\":1,\"dataset\":\"car\",\"query_text\":\"?Car product GER\"}");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request.ValueOrDie().deadline_ms, 0);
  EXPECT_EQ(request.ValueOrDie().priority, RequestPriority::kNormal);

  auto response = DecodeQueryResponseJson(
      "{\"v\":1,\"dataset\":\"car\",\"answers\":[]}");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.ValueOrDie().deadline_ms, 0);
  EXPECT_EQ(response.ValueOrDie().priority, RequestPriority::kNormal);
}

TEST(OverloadFieldsCodecTest, MalformedOverloadFieldsAreRejected) {
  auto negative = DecodeQueryRequestJson(
      "{\"v\":1,\"dataset\":\"c\",\"query_text\":\"?T p N\","
      "\"deadline_ms\":-5}");
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);

  auto bad_priority = DecodeQueryRequestJson(
      "{\"v\":1,\"dataset\":\"c\",\"query_text\":\"?T p N\","
      "\"priority\":\"urgent\"}");
  ASSERT_FALSE(bad_priority.ok());
  EXPECT_EQ(bad_priority.status().code(), StatusCode::kInvalidArgument);

  // The response decoder enforces the same rule as the request decoder.
  auto negative_echo = DecodeQueryResponseJson(
      "{\"v\":1,\"dataset\":\"c\",\"answers\":[],\"deadline_ms\":-5}");
  ASSERT_FALSE(negative_echo.ok());
  EXPECT_EQ(negative_echo.status().code(), StatusCode::kInvalidArgument);
}

TEST(ErrorCodecTest, EncodesCodeAndMessage) {
  const std::string doc =
      EncodeErrorJson(Status::NotFound("unknown dataset: \"x\""));
  auto parsed = JsonValue::Parse(doc);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* error = parsed.ValueOrDie().Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("code")->string_value(), "NotFound");
  EXPECT_EQ(error->Find("message")->string_value(),
            "unknown dataset: \"x\"");
}

}  // namespace
}  // namespace kgsearch
