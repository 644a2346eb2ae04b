// Deterministic time-bounded (TBQ) convergence tests driven by
// ManualClock: with a frozen clock the Algorithm 3 estimator reduces to a
// pure match-count budget, so stop decisions (and therefore results) are
// exactly reproducible — no wall-clock noise, no scheduling noise
// (threads = 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gen/car_domain.h"
#include "util/clock.h"

namespace kgsearch {
namespace {

class TbqConvergenceTest : public ::testing::Test {
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

  static TimeBoundedOptions BaseOptions(size_t k, int64_t bound_micros) {
    TimeBoundedOptions options;
    options.k = k;
    options.time_bound_micros = bound_micros;
    options.threads = 1;
    options.stop_check_interval = 1;
    // Frozen clock => estimate == total_matches * t: a pure match budget.
    options.per_match_assembly_micros = 1.0;
    return options;
  }

  static GeneratedDataset* dataset_;
};

GeneratedDataset* TbqConvergenceTest::dataset_ = nullptr;

// Lemma 7 territory: a bound generous enough that the estimator never
// fires must (a) report stopped_by_time == false and (b) reproduce the
// unbounded SGQ answers exactly — same entities, same ranking.
TEST_F(TbqConvergenceTest, GenerousBoundMatchesUnboundedSgqExactly) {
  ManualClock clock(0);  // frozen: elapsed time never accrues
  SgqEngine tbq(dataset_->graph.get(), dataset_->space.get(),
                &dataset_->library, &clock);
  const size_t k = 100;  // large enough to cover every reachable answer

  QueryGraph q = MakeQ117Variant(4);
  auto tbq_result = tbq.Query(q, BaseOptions(k, 1'000'000'000));
  ASSERT_TRUE(tbq_result.ok()) << tbq_result.status().ToString();
  EXPECT_FALSE(tbq_result.ValueOrDie().stopped_by_time);

  SgqEngine sgq(dataset_->graph.get(), dataset_->space.get(),
                &dataset_->library, &clock);
  EngineOptions soptions;
  soptions.k = k;
  soptions.threads = 1;
  auto sgq_result = sgq.Query(q, soptions);
  ASSERT_TRUE(sgq_result.ok());

  const std::vector<NodeId> tbq_answers = tbq_result.ValueOrDie().AnswerIds();
  const std::vector<NodeId> sgq_answers = sgq_result.ValueOrDie().AnswerIds();
  ASSERT_FALSE(tbq_answers.empty());
  EXPECT_EQ(tbq_answers, sgq_answers);
}

// A tiny match budget must stop early yet still return <= k well-formed
// final matches: parts joined at the pivot, pss values in (0, 1], scores
// equal to the sum of part pss values, ranked non-increasing.
TEST_F(TbqConvergenceTest, TinyBoundReturnsWellFormedTopK) {
  ManualClock clock(0);
  SgqEngine tbq(dataset_->graph.get(), dataset_->space.get(),
                &dataset_->library, &clock);
  const size_t k = 5;
  // alert threshold = 10 * 0.8 = 8 "microseconds" => stop after 8 matches.
  auto result = tbq.Query(MakeQ117Variant(4), BaseOptions(k, 10));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryResult& r = result.ValueOrDie();
  EXPECT_TRUE(r.stopped_by_time);
  EXPECT_LE(r.matches.size(), k);

  double prev_score = std::numeric_limits<double>::infinity();
  for (const FinalMatch& m : r.matches) {
    EXPECT_NE(m.pivot_match, kInvalidNode);
    EXPECT_FALSE(m.parts.empty());
    double score_sum = 0.0;
    for (const PathMatch& part : m.parts) {
      EXPECT_EQ(part.target(), m.pivot_match);
      EXPECT_GT(part.pss, 0.0);
      EXPECT_LE(part.pss, 1.0 + 1e-12);
      EXPECT_EQ(part.nodes.size(), part.predicates.size() + 1);
      EXPECT_EQ(part.weights.size(), part.predicates.size());
      score_sum += part.pss;
    }
    EXPECT_NEAR(m.score, score_sum, 1e-9);
    EXPECT_LE(m.score, prev_score + 1e-12);
    prev_score = m.score;
  }
}

// With a frozen clock the whole run is deterministic: identical bounds
// give identical results across repeated runs, including stop behaviour.
TEST_F(TbqConvergenceTest, FrozenClockRunsAreReproducible) {
  for (int64_t bound : {10, 50, 1'000'000'000}) {
    ManualClock clock_a(0);
    SgqEngine engine_a(dataset_->graph.get(), dataset_->space.get(),
                       &dataset_->library, &clock_a);
    auto a = engine_a.Query(MakeQ117Variant(4), BaseOptions(10, bound));
    ManualClock clock_b(0);
    SgqEngine engine_b(dataset_->graph.get(), dataset_->space.get(),
                       &dataset_->library, &clock_b);
    auto b = engine_b.Query(MakeQ117Variant(4), BaseOptions(10, bound));
    ASSERT_TRUE(a.ok() && b.ok()) << "bound " << bound;
    EXPECT_EQ(a.ValueOrDie().stopped_by_time, b.ValueOrDie().stopped_by_time);
    EXPECT_EQ(a.ValueOrDie().AnswerIds(), b.ValueOrDie().AnswerIds());
    ASSERT_EQ(a.ValueOrDie().matches.size(), b.ValueOrDie().matches.size());
    for (size_t i = 0; i < a.ValueOrDie().matches.size(); ++i) {
      EXPECT_EQ(a.ValueOrDie().matches[i].score,
                b.ValueOrDie().matches[i].score);
    }
  }
}

// Growing the match budget between the tiny and generous regimes never
// shrinks answer quality: the answer set converges monotonically (by
// inclusion count against the converged answers) as the bound grows.
TEST_F(TbqConvergenceTest, AnswerQualityMonotoneInMatchBudget) {
  ManualClock ref_clock(0);
  SgqEngine ref_engine(dataset_->graph.get(), dataset_->space.get(),
                       &dataset_->library, &ref_clock);
  auto converged =
      ref_engine.Query(MakeQ117Variant(4), BaseOptions(40, 1'000'000'000));
  ASSERT_TRUE(converged.ok());
  const std::vector<NodeId> target = converged.ValueOrDie().AnswerIds();
  ASSERT_FALSE(target.empty());

  size_t prev_overlap = 0;
  for (int64_t bound : {5, 20, 100, 1'000, 1'000'000'000}) {
    ManualClock clock(0);
    SgqEngine engine(dataset_->graph.get(), dataset_->space.get(),
                     &dataset_->library, &clock);
    auto result = engine.Query(MakeQ117Variant(4), BaseOptions(40, bound));
    ASSERT_TRUE(result.ok()) << "bound " << bound;
    const std::vector<NodeId> answers = result.ValueOrDie().AnswerIds();
    size_t overlap = 0;
    for (NodeId u : answers) {
      if (std::find(target.begin(), target.end(), u) != target.end()) {
        ++overlap;
      }
    }
    EXPECT_GE(overlap + 1, prev_overlap)  // allow 1 tie-break wobble
        << "bound " << bound;
    prev_overlap = std::max(prev_overlap, overlap);
  }
  EXPECT_EQ(prev_overlap, target.size());  // converges to the SGQ answers
}

// The triangle of Figure 3(c): two sub-queries (?auto-assembly-Germany and
// ?auto-designer-?person-nationality-Germany) that share one stop signal.
QueryGraph TriangleQuery() {
  QueryGraph q;
  const int car = q.AddTargetNode("Automobile");
  const int person = q.AddTargetNode("Person");
  const int germany = q.AddSpecificNode("Country", "Germany");
  q.AddEdge(car, germany, "assembly");
  q.AddEdge(person, germany, "nationality");
  q.AddEdge(car, person, "designer");
  return q;
}

struct GoldenStats {
  uint64_t pushed, popped, expanded, pruned_tau, pruned_visited,
      goals_emitted;
  size_t materialized_nodes;
  bool stopped_early, exhausted;
};

struct GoldenRun {
  int variant;  ///< Q117 variant 1-4; 0 = TriangleQuery()
  int64_t bound_micros;
  bool stopped_by_time;
  std::vector<NodeId> answer_ids;
  std::vector<double> scores;  ///< exact, as hex-float literals
  std::vector<GoldenStats> subquery_stats;
};

// Golden early-stop output: answers, exact scores and every sub-query's
// search counters under the frozen-clock match budget (stop once the
// collected matches reach 0.8 * bound). Recorded from the implementation
// before SGQ and TBQ shared one query pipeline; it pins where each search
// stops, including the shared stop signal across sub-queries, so a change
// that moves a stop point fails here even when two runs still agree.
TEST_F(TbqConvergenceTest, EarlyStopMatchesGolden) {
  const std::vector<NodeId> q117 = {2, 4, 15, 19, 27, 28, 29, 30, 33, 36};
  const std::vector<double> ones(10, 0x1p+0);
  const std::vector<double> product(10, 0x1.e4760c86b997p-1);
  const GoldenStats first_pop = {25, 1, 1, 18, 17, 46, 31, true, false};
  const std::vector<GoldenRun> golden = {
      {1, 10, true, q117, ones, {first_pop}},
      {1, 50, true, q117, ones, {first_pop}},
      {2, 10, true, q117, ones, {first_pop}},
      {2, 50, true, q117, ones, {first_pop}},
      {3, 10, true, q117, product, {first_pop}},
      {3, 50, true, q117, product, {first_pop}},
      {4, 10, true, q117, ones, {first_pop}},
      {4, 50, true, q117, ones, {first_pop}},
      {4, 100, true, q117, ones, {{25, 15, 15, 58, 67, 81, 64, true, false}}},
      {0, 100, true, {}, {},
       {{25, 15, 15, 58, 67, 81, 64, true, false},
        {75, 1, 1, 14, 17, 0, 89, true, false}}},
      {0, 140, true, {105, 43, 117, 127},
       {0x1.f236f4c6a1678p+0, 0x1.e6c60512ffc62p+0, 0x1.e6c60512ffc62p+0,
        0x1.dee4a0b421dd6p+0},
       {{25, 25, 25, 82, 112, 107, 84, false, true},
        {75, 4, 4, 19, 53, 7, 91, true, false}}},
  };
  for (const GoldenRun& want : golden) {
    SCOPED_TRACE("variant " + std::to_string(want.variant) + " bound " +
                 std::to_string(want.bound_micros));
    ManualClock clock(0);
    SgqEngine engine(dataset_->graph.get(), dataset_->space.get(),
                     &dataset_->library, &clock);
    const QueryGraph query =
        want.variant == 0 ? TriangleQuery() : MakeQ117Variant(want.variant);
    auto result = engine.Query(query, BaseOptions(10, want.bound_micros));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const QueryResult& got = result.ValueOrDie();
    EXPECT_EQ(got.stopped_by_time, want.stopped_by_time);
    EXPECT_EQ(got.AnswerIds(), want.answer_ids);
    std::vector<double> scores;
    for (const FinalMatch& m : got.matches) scores.push_back(m.score);
    EXPECT_EQ(scores, want.scores);
    ASSERT_EQ(got.subquery_stats.size(), want.subquery_stats.size());
    for (size_t i = 0; i < want.subquery_stats.size(); ++i) {
      const SearchStats& s = got.subquery_stats[i];
      const GoldenStats& w = want.subquery_stats[i];
      SCOPED_TRACE("sub-query " + std::to_string(i));
      EXPECT_EQ(s.pushed, w.pushed);
      EXPECT_EQ(s.popped, w.popped);
      EXPECT_EQ(s.expanded, w.expanded);
      EXPECT_EQ(s.pruned_tau, w.pruned_tau);
      EXPECT_EQ(s.pruned_visited, w.pruned_visited);
      EXPECT_EQ(s.goals_emitted, w.goals_emitted);
      EXPECT_EQ(s.materialized_nodes, w.materialized_nodes);
      EXPECT_EQ(s.stopped_early, w.stopped_early);
      EXPECT_EQ(s.exhausted, w.exhausted);
    }
  }
}

}  // namespace
}  // namespace kgsearch
