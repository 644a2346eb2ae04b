// Cooperative cancellation and hard deadlines inside the engines: the
// interrupt must fire between node expansions (deterministically, under a
// ManualClock or counting interrupt), surface kCancelled /
// kDeadlineExceeded as a Status, and — when it never fires — leave results
// bit-identical to an unconstrained run.
#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"
#include "gen/car_domain.h"
#include "testing/test_world.h"
#include "util/cancel.h"

namespace kgsearch {
namespace {

using testing_helpers::MakeSingleEdgeSubQuery;
using testing_helpers::MakeSpaceWithCosines;

/// Clock that advances one microsecond per read; with interrupt polling
/// enabled this turns "wall time" into a deterministic poll budget.
class AdvancingClock : public Clock {
 public:
  explicit AdvancingClock(CancelToken* cancel_after_token = nullptr,
                          int64_t cancel_after_reads = 0)
      : token_(cancel_after_token), cancel_at_(cancel_after_reads) {}

  int64_t NowMicros() const override {
    const int64_t t = ++reads_;
    if (token_ != nullptr && t >= cancel_at_) token_->Cancel();
    return t;
  }

 private:
  mutable int64_t reads_ = 0;
  CancelToken* token_;
  int64_t cancel_at_;
};

/// A small dense world whose single-edge search pops enough states to
/// guarantee several interrupt polls at stop_check_interval = 1.
struct ChainWorld {
  KnowledgeGraph graph;
  std::unique_ptr<PredicateSpace> space;
  NodeId anchor;

  ChainWorld() {
    anchor = graph.AddNode("Anchor", "Country");
    std::vector<NodeId> hubs;
    for (int i = 0; i < 6; ++i) {
      hubs.push_back(graph.AddNode("Hub" + std::to_string(i), "City"));
      graph.AddEdge(anchor, "near", hubs.back());
    }
    for (int i = 0; i < 18; ++i) {
      NodeId car = graph.AddNode("Car" + std::to_string(i), "Automobile");
      graph.AddEdge(hubs[static_cast<size_t>(i) % hubs.size()], "made",
                    car);
    }
    graph.InternPredicate("q");
    graph.Finalize();
    space = MakeSpaceWithCosines(graph, {{"near", 0.95}, {"made", 0.92}});
  }
};

TEST(AStarInterruptTest, NonOkInterruptAbortsOptimalSearch) {
  ChainWorld world;
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(world.graph, world.anchor, "q", "Automobile");
  AStarConfig config;
  config.n_hat = 2;
  config.tau = 0.5;
  config.k = 100;
  config.stop_check_interval = 1;
  size_t polls = 0;
  config.interrupt = [&polls]() {
    return ++polls >= 3 ? Status::DeadlineExceeded("test wall")
                        : Status::OK();
  };
  auto result = AStarSearch(world.graph, *world.space, sub, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(polls, 3u);
}

TEST(AStarInterruptTest, NonOkInterruptAbortsAnytimeSearch) {
  ChainWorld world;
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(world.graph, world.anchor, "q", "Automobile");
  AStarConfig config;
  config.n_hat = 2;
  config.tau = 0.5;
  config.anytime = true;
  config.should_stop = [](size_t) { return false; };
  config.stop_check_interval = 1;
  config.interrupt = []() { return Status::Cancelled("revoked"); };
  auto result = AStarSearch(world.graph, *world.space, sub, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(AStarInterruptTest, ZeroCheckIntervalIsClampedNotDivByZero) {
  ChainWorld world;
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(world.graph, world.anchor, "q", "Automobile");
  AStarConfig config;
  config.n_hat = 2;
  config.tau = 0.5;
  config.stop_check_interval = 0;  // treated as "poll every pop"
  config.interrupt = []() { return Status::Cancelled("revoked"); };
  auto result = AStarSearch(world.graph, *world.space, sub, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(AStarInterruptTest, NeverFiringInterruptKeepsMatchesBitIdentical) {
  ChainWorld world;
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(world.graph, world.anchor, "q", "Automobile");
  AStarConfig config;
  config.n_hat = 2;
  config.tau = 0.5;
  config.k = 100;
  auto plain = AStarSearch(world.graph, *world.space, sub, config);
  ASSERT_TRUE(plain.ok());

  config.stop_check_interval = 1;
  config.interrupt = []() { return Status::OK(); };
  auto polled = AStarSearch(world.graph, *world.space, sub, config);
  ASSERT_TRUE(polled.ok());

  const auto& a = plain.ValueOrDie();
  const auto& b = polled.ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_EQ(a[i].pss, b[i].pss);
  }
}

class EngineCancellationTest : public ::testing::Test {
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

GeneratedDataset* EngineCancellationTest::dataset_ = nullptr;

TEST_F(EngineCancellationTest, SgqAlreadyExpiredDeadlineFailsFast) {
  ManualClock clock(1'000'000);
  SgqEngine engine(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library, &clock);
  EngineOptions options;
  options.deadline_micros = 500'000;  // in the past
  auto result = engine.Query(MakeQ117Variant(4), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(EngineCancellationTest, SgqPreCancelledTokenFailsFast) {
  SgqEngine engine(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library);
  CancelToken token;
  token.Cancel();
  EngineOptions options;
  options.cancel = &token;
  auto result = engine.Query(MakeQ117Variant(4), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(EngineCancellationTest, SgqDeadlineExpiringMidSearchAborts) {
  // Every clock read advances 1us; the entry check passes and a poll a few
  // dozen expansions later crosses the 10us "deadline" deterministically.
  AdvancingClock clock;
  SgqEngine engine(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library, &clock);
  EngineOptions options;
  options.k = 40;
  options.threads = 1;
  options.deadline_micros = 10;
  options.stop_check_interval = 1;  // poll every pop: precise abort point
  auto result = engine.Query(MakeQ117Variant(4), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(EngineCancellationTest, SgqCancelledMidSearchAborts) {
  // The clock latches the token after 40 reads; deadline is generous, so
  // the abort can only come from cancellation.
  CancelToken token;
  AdvancingClock clock(&token, 40);
  SgqEngine engine(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library, &clock);
  EngineOptions options;
  options.k = 40;
  options.threads = 1;
  options.deadline_micros = 1'000'000'000;
  options.cancel = &token;
  options.stop_check_interval = 1;
  auto result = engine.Query(MakeQ117Variant(4), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(EngineCancellationTest, SgqGenerousDeadlineIsBitIdentical) {
  SgqEngine engine(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library);
  EngineOptions plain;
  plain.k = 25;
  plain.threads = 1;
  auto reference = engine.Query(MakeQ117Variant(4), plain);
  ASSERT_TRUE(reference.ok());

  CancelToken token;  // never cancelled
  EngineOptions bounded = plain;
  bounded.deadline_micros =
      SystemClock::Default()->NowMicros() + 3'600'000'000LL;  // +1 hour
  bounded.cancel = &token;
  auto constrained = engine.Query(MakeQ117Variant(4), bounded);
  ASSERT_TRUE(constrained.ok());

  const QueryResult& a = reference.ValueOrDie();
  const QueryResult& b = constrained.ValueOrDie();
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].pivot_match, b.matches[i].pivot_match);
    EXPECT_EQ(a.matches[i].score, b.matches[i].score);
  }
}

TEST_F(EngineCancellationTest, TbqAlreadyExpiredDeadlineFailsFast) {
  ManualClock clock(1'000'000);
  SgqEngine engine(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library, &clock);
  TimeBoundedOptions options;
  options.deadline_micros = 999'999;
  options.per_match_assembly_micros = 0.5;
  auto result = engine.Query(MakeQ117Variant(4), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(EngineCancellationTest, TbqPreCancelledTokenFailsFast) {
  SgqEngine engine(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library);
  CancelToken token;
  token.Cancel();
  TimeBoundedOptions options;
  options.cancel = &token;
  options.per_match_assembly_micros = 0.5;
  auto result = engine.Query(MakeQ117Variant(4), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(EngineCancellationTest, TbqCancelledMidSearchAborts) {
  // Soft time bound and hard deadline are both far away; only the token —
  // latched by the clock after 20 reads (the per-pop estimator and
  // interrupt polls read ~2x per pop, and the tiny car graph exhausts in a
  // few dozen pops) — can stop the query, and it must surface as
  // kCancelled, not as a partial anytime result.
  CancelToken token;
  AdvancingClock clock(&token, 20);
  SgqEngine engine(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library, &clock);
  TimeBoundedOptions options;
  options.threads = 1;
  options.stop_check_interval = 1;
  options.time_bound_micros = 1'000'000'000'000LL;
  options.deadline_micros = 1'000'000'000'000LL;
  options.per_match_assembly_micros = 0.0001;
  options.cancel = &token;
  auto result = engine.Query(MakeQ117Variant(4), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(EngineCancellationTest, TbqGenerousDeadlineKeepsAnytimeSemantics) {
  // A deadline that never binds must not disturb the paper's soft-budget
  // behavior: generous bound + generous deadline == generous bound alone.
  SgqEngine engine(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library);
  TimeBoundedOptions plain;
  plain.k = 20;
  plain.threads = 1;
  plain.time_bound_micros = 1'000'000'000;
  plain.per_match_assembly_micros = 0.5;
  auto reference = engine.Query(MakeQ117Variant(4), plain);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference.ValueOrDie().stopped_by_time);

  CancelToken token;
  TimeBoundedOptions bounded = plain;
  bounded.deadline_micros =
      SystemClock::Default()->NowMicros() + 3'600'000'000LL;
  bounded.cancel = &token;
  auto constrained = engine.Query(MakeQ117Variant(4), bounded);
  ASSERT_TRUE(constrained.ok());
  EXPECT_FALSE(constrained.ValueOrDie().stopped_by_time);
  EXPECT_EQ(constrained.ValueOrDie().AnswerIds(),
            reference.ValueOrDie().AnswerIds());
}

}  // namespace
}  // namespace kgsearch
