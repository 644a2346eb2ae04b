#include "service/query_service.h"

#include <gtest/gtest.h>

#include <vector>

#include "gen/car_domain.h"
#include "testing/q117_session.h"

namespace kgsearch {
namespace {

class QueryServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto result = MakeCarDomainDataset(150, 117);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    dataset_ = std::move(result).ValueOrDie().release();
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static QueryService MakeService() {
    QueryServiceOptions options;
    options.num_threads = 4;
    return QueryService(dataset_->graph.get(), dataset_->space.get(),
                        &dataset_->library, options);
  }

  static GeneratedDataset* dataset_;
};

GeneratedDataset* QueryServiceTest::dataset_ = nullptr;

/// Asserts two query results are bit-identical: same ranking, same pivots,
/// same scores, same per-sub-query paths.
void ExpectIdenticalResults(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.matches.size(), b.matches.size());
  EXPECT_EQ(a.decomposition.pivot, b.decomposition.pivot);
  for (size_t i = 0; i < a.matches.size(); ++i) {
    const FinalMatch& ma = a.matches[i];
    const FinalMatch& mb = b.matches[i];
    EXPECT_EQ(ma.pivot_match, mb.pivot_match) << "rank " << i;
    EXPECT_EQ(ma.score, mb.score) << "rank " << i;
    ASSERT_EQ(ma.parts.size(), mb.parts.size());
    for (size_t p = 0; p < ma.parts.size(); ++p) {
      EXPECT_EQ(ma.parts[p].nodes, mb.parts[p].nodes);
      EXPECT_EQ(ma.parts[p].predicates, mb.parts[p].predicates);
      EXPECT_EQ(ma.parts[p].pss, mb.parts[p].pss);
    }
  }
}

TEST_F(QueryServiceTest, SyncQueryBitIdenticalToDirectEngine) {
  QueryService service = MakeService();
  SgqEngine direct(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library);
  for (int variant = 1; variant <= 4; ++variant) {
    QueryGraph q = MakeQ117Variant(variant);
    EngineOptions options;
    options.k = 20;
    auto via_service = service.Query(q, options);
    auto via_engine = direct.Query(q, options);
    ASSERT_TRUE(via_service.ok()) << via_service.status().ToString();
    ASSERT_TRUE(via_engine.ok()) << via_engine.status().ToString();
    ExpectIdenticalResults(via_service.ValueOrDie(),
                           via_engine.ValueOrDie());
  }
}

TEST_F(QueryServiceTest, RepeatedQueryHitsPlanAndMatcherCaches) {
  QueryService service = MakeService();
  QueryGraph q = MakeQ117Variant(4);
  EngineOptions options;
  options.k = 10;
  auto first = service.Query(q, options);
  ASSERT_TRUE(first.ok());
  const ServiceStatsSnapshot before = service.Stats();
  auto second = service.Query(q, options);
  ASSERT_TRUE(second.ok());
  const ServiceStatsSnapshot after = service.Stats();

  EXPECT_EQ(before.decomposition_cache_misses, 1u);
  EXPECT_EQ(after.decomposition_cache_hits,
            before.decomposition_cache_hits + 1);
  EXPECT_GT(after.matcher_cache_hits, before.matcher_cache_hits);
  ExpectIdenticalResults(first.ValueOrDie(), second.ValueOrDie());
}

TEST_F(QueryServiceTest, TimeBoundedThroughServiceConvergesUnderGenerousBound) {
  QueryService service = MakeService();
  QueryGraph q = MakeQ117Variant(4);
  TimeBoundedOptions toptions;
  toptions.k = 20;
  toptions.time_bound_micros = 1'000'000'000;  // ~17 minutes: never binds
  toptions.per_match_assembly_micros = 0.5;
  auto tbq = service.Query(q, toptions);
  ASSERT_TRUE(tbq.ok()) << tbq.status().ToString();
  EXPECT_FALSE(tbq.ValueOrDie().stopped_by_time);
  EXPECT_FALSE(tbq.ValueOrDie().matches.empty());
  EXPECT_LE(tbq.ValueOrDie().matches.size(), 20u);

  // The asynchronous path (KgSession::Submit) over the same dataset,
  // generated again, answers the same ids.
  KgSession session;
  ASSERT_TRUE(testing_fixture::RegisterCarDomain(&session, 150).ok());
  QueryRequest request = testing_fixture::Q117Request(4, toptions.k);
  request.mode = QueryMode::kTbq;
  request.options.time_bound_micros = toptions.time_bound_micros;
  request.options.per_match_assembly_micros =
      toptions.per_match_assembly_micros;
  auto async_tbq = session.Submit(request).get();
  ASSERT_TRUE(async_tbq.ok());
  EXPECT_EQ(testing_fixture::AnswerIds(async_tbq.ValueOrDie()),
            tbq.ValueOrDie().AnswerIds());
}

TEST_F(QueryServiceTest, StatsTrackTrafficAndLatency) {
  QueryService service = MakeService();
  EngineOptions options;
  options.k = 10;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Query(MakeQ117Variant(4), options).ok());
  }
  TimeBoundedOptions toptions;
  toptions.k = 5;
  toptions.time_bound_micros = 1'000'000;
  ASSERT_TRUE(service.Query(MakeQ117Variant(3), toptions).ok());

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.queries_total, 4u);
  EXPECT_EQ(stats.sgq_queries, 3u);
  EXPECT_EQ(stats.tbq_queries, 1u);
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GT(stats.uptime_seconds, 0.0);
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_GT(stats.latency_p50_ms, 0.0);
  EXPECT_LE(stats.latency_p50_ms, stats.latency_p95_ms);
  EXPECT_LE(stats.latency_p95_ms, stats.latency_max_ms * 1.2);
  EXPECT_GT(stats.decomposition_cache_hit_rate(), 0.0);
}

TEST_F(QueryServiceTest, FailedQueriesAreCounted) {
  QueryService service = MakeService();
  EngineOptions options;
  options.k = 0;  // invalid: engines require k >= 1
  EXPECT_FALSE(service.Query(MakeQ117Variant(4), options).ok());
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.queries_total, 1u);
  EXPECT_EQ(stats.queries_failed, 1u);
}

TEST_F(QueryServiceTest, ExternalExecutorSharedByTwoServices) {
  // One process-wide pool, two services (the KgSession deployment shape):
  // results must be bit-identical to an owned-pool service.
  ThreadPool pool(3);
  QueryServiceOptions options;
  options.executor = &pool;
  QueryService a(dataset_->graph.get(), dataset_->space.get(),
                 &dataset_->library, options);
  QueryService b(dataset_->graph.get(), dataset_->space.get(),
                 &dataset_->library, options);
  EXPECT_EQ(a.num_threads(), 3u);
  EXPECT_EQ(b.num_threads(), 3u);

  QueryService owned = MakeService();
  EngineOptions eoptions;
  eoptions.k = 10;
  for (int variant = 1; variant <= 4; ++variant) {
    auto ra = a.Query(MakeQ117Variant(variant), eoptions);
    auto rb = b.Query(MakeQ117Variant(variant), eoptions);
    auto ro = owned.Query(MakeQ117Variant(variant), eoptions);
    ASSERT_TRUE(ra.ok() && rb.ok() && ro.ok()) << "variant " << variant;
    ExpectIdenticalResults(ra.ValueOrDie(), ro.ValueOrDie());
    ExpectIdenticalResults(rb.ValueOrDie(), ro.ValueOrDie());
  }
}

TEST(QuerySignatureTest, DistinguishesStructureAndOptions) {
  QueryGraph a;
  int t = a.AddTargetNode("Automobile");
  int s = a.AddSpecificNode("Country", "Germany");
  a.AddEdge(t, s, "assembly");

  QueryGraph b;
  t = b.AddTargetNode("Automobile");
  s = b.AddSpecificNode("Country", "France");
  b.AddEdge(t, s, "assembly");

  const std::string sig_a =
      QuerySignature(a, PivotStrategy::kMinCost, 4, 42);
  EXPECT_EQ(sig_a, QuerySignature(a, PivotStrategy::kMinCost, 4, 42));
  EXPECT_NE(sig_a, QuerySignature(b, PivotStrategy::kMinCost, 4, 42));
  EXPECT_NE(sig_a, QuerySignature(a, PivotStrategy::kRandom, 4, 42));
  EXPECT_NE(sig_a, QuerySignature(a, PivotStrategy::kMinCost, 3, 42));
  EXPECT_NE(sig_a, QuerySignature(a, PivotStrategy::kMinCost, 4, 7));
}

TEST(LatencyHistogramTest, PercentilesAreOrderedAndBounded) {
  LatencyHistogram hist;
  for (int64_t us : {100, 200, 300, 400, 500, 600, 700, 800, 900, 10000}) {
    hist.RecordMicros(us);
  }
  EXPECT_EQ(hist.count(), 10u);
  EXPECT_EQ(hist.max_micros(), 10000);
  const double p50 = hist.PercentileMicros(0.50);
  const double p95 = hist.PercentileMicros(0.95);
  EXPECT_LE(p50, p95);
  // Bucketed estimates: within ~±15% of the true quantiles. With 10
  // samples the 0.95 quantile is the 9th value (900us), not the outlier.
  EXPECT_GT(p50, 300.0);
  EXPECT_LT(p50, 700.0);
  EXPECT_GT(p95, 700.0);
  EXPECT_LT(p95, 1200.0);
  EXPECT_GT(hist.PercentileMicros(1.0), 5000.0);
}

}  // namespace
}  // namespace kgsearch
