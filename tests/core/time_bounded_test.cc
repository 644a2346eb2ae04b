#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "eval/metrics.h"
#include "gen/car_domain.h"

namespace kgsearch {
namespace {

class TimeBoundedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto result = MakeCarDomainDataset(120, 117);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    dataset_ = std::move(result).ValueOrDie().release();
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static GeneratedDataset* dataset_;
};

GeneratedDataset* TimeBoundedTest::dataset_ = nullptr;

/// Runs TBQ with a manual clock that advances a fixed amount per A* pop,
/// making the "time" bound a deterministic expansion budget.
Result<QueryResult> RunWithVirtualTime(const GeneratedDataset& ds,
                                             const QueryGraph& query,
                                             int64_t bound_micros, size_t k) {
  // The expansion hook is not exposed through SgqEngine (it drives real
  // searches); instead we advance the clock from the should-stop polling by
  // configuring a 1-pop check interval and advancing on each poll via a
  // wrapper clock.
  class PollCountingClock : public Clock {
   public:
    int64_t NowMicros() const override {
      // Each read advances time by 1us: deterministic, strictly monotone.
      return ++reads_;
    }
    mutable int64_t reads_ = 0;
  };
  static PollCountingClock clock;  // shared across calls; monotone anyway
  SgqEngine engine(ds.graph.get(), ds.space.get(), &ds.library, &clock);
  TimeBoundedOptions options;
  options.k = k;
  options.time_bound_micros = bound_micros;
  options.threads = 1;
  options.stop_check_interval = 1;
  options.per_match_assembly_micros = 0.01;
  return engine.Query(query, options);
}

TEST_F(TimeBoundedTest, TinyBoundStopsEarly) {
  QueryGraph q = MakeQ117Variant(4);
  auto result = RunWithVirtualTime(*dataset_, q, 20, 10);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.ValueOrDie().stopped_by_time);
}

TEST_F(TimeBoundedTest, LargeBoundRunsToExhaustion) {
  QueryGraph q = MakeQ117Variant(4);
  auto result = RunWithVirtualTime(*dataset_, q, 100'000'000, 10);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.ValueOrDie().stopped_by_time);
  EXPECT_FALSE(result.ValueOrDie().matches.empty());
}

TEST_F(TimeBoundedTest, QualityIsMonotoneInTimeBound) {
  // Theorem 4: Jaccard similarity to the optimal answers is non-decreasing
  // in the time bound.
  QueryGraph q = MakeQ117Variant(4);
  const size_t k = 40;

  // Reference: the optimal answers (huge bound).
  auto opt = RunWithVirtualTime(*dataset_, q, 1'000'000'000, k);
  ASSERT_TRUE(opt.ok());
  std::vector<NodeId> optimal = opt.ValueOrDie().AnswerIds();
  ASSERT_FALSE(optimal.empty());

  double prev = -1.0;
  for (int64_t bound : {200, 2'000, 20'000, 1'000'000'000}) {
    auto result = RunWithVirtualTime(*dataset_, q, bound, k);
    ASSERT_TRUE(result.ok());
    double jac = Jaccard(result.ValueOrDie().AnswerIds(), optimal);
    EXPECT_GE(jac + 0.15, prev)  // allow small local wobble, require trend
        << "bound " << bound;
    prev = std::max(prev, jac);
  }
  EXPECT_NEAR(prev, 1.0, 1e-9);  // converges to the optimal answers
}

TEST_F(TimeBoundedTest, EnoughTimeMatchesSgqAnswers) {
  QueryGraph q = MakeQ117Variant(4);
  const size_t k = 30;
  auto tbq = RunWithVirtualTime(*dataset_, q, 1'000'000'000, k);
  ASSERT_TRUE(tbq.ok());

  SgqEngine sgq(dataset_->graph.get(), dataset_->space.get(),
                &dataset_->library);
  EngineOptions options;
  options.k = k;
  auto ref = sgq.Query(q, options);
  ASSERT_TRUE(ref.ok());

  std::vector<NodeId> a = tbq.ValueOrDie().AnswerIds();
  std::vector<NodeId> b = ref.ValueOrDie().AnswerIds();
  EXPECT_GT(Jaccard(a, b), 0.9);
}

TEST_F(TimeBoundedTest, InvalidOptionsRejected) {
  SgqEngine engine(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library);
  QueryGraph q = MakeQ117Variant(4);
  TimeBoundedOptions options;
  options.k = 0;
  EXPECT_FALSE(engine.Query(q, options).ok());
  options.k = 5;
  options.time_bound_micros = 0;
  EXPECT_FALSE(engine.Query(q, options).ok());
}

TEST_F(TimeBoundedTest, CalibrationReturnsPositiveCost) {
  const double t =
      SgqEngine::CalibrateAssemblyCostMicros(SystemClock::Default());
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 10'000.0);  // sanity: below 10ms per match
  ManualClock manual(0);
  EXPECT_GT(SgqEngine::CalibrateAssemblyCostMicros(&manual), 0.0);
}

TEST_F(TimeBoundedTest, RealClockRespectsBoundLoosely) {
  SgqEngine engine(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library);
  QueryGraph q = MakeQ117Variant(4);
  TimeBoundedOptions options;
  options.k = 20;
  options.time_bound_micros = 50'000;  // 50 ms
  options.stop_check_interval = 16;
  auto result = engine.Query(q, options);
  ASSERT_TRUE(result.ok());
  // Loose envelope (scheduling noise): within 4x the bound.
  EXPECT_LT(result.ValueOrDie().elapsed_ms, 200.0);
}

}  // namespace
}  // namespace kgsearch
