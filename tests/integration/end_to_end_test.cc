// Cross-module integration tests: full pipeline from generated dataset
// through decomposition, A* search, TA assembly, and metrics — including
// the alternates-based answer extraction and the deep-chain pivot behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baselines/adapters.h"
#include "core/engine.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "gen/workload.h"
#include "kg/triple_io.h"

namespace kgsearch {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto result = GenerateDataset(DbpediaLikeSpec(0.3, 21));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    dataset_ = std::move(result).ValueOrDie().release();
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static GeneratedDataset* dataset_;
};

GeneratedDataset* EndToEndTest::dataset_ = nullptr;

TEST_F(EndToEndTest, SimpleQueryRecallGrowsWithK) {
  auto q = MakeIntentQuery(*dataset_, 0, 0);
  ASSERT_TRUE(q.ok());
  MethodContext context{dataset_->graph.get(), dataset_->space.get(),
                        &dataset_->library};
  SgqMethod sgq(context, EngineOptions{});
  double prev = -1.0;
  for (size_t k : {5u, 20u, 80u, 320u}) {
    auto answers = sgq.QueryTopK(q.ValueOrDie().query, 0, k);
    ASSERT_TRUE(answers.ok());
    Prf prf = ComputePrf(answers.ValueOrDie(), q.ValueOrDie().gold);
    EXPECT_GE(prf.recall + 1e-9, prev) << "k=" << k;
    prev = prf.recall;
  }
  EXPECT_GT(prev, 0.5);
}

TEST_F(EndToEndTest, StarQueryAnswersSatisfyBothLegs) {
  auto star = MakeStarQuery(*dataset_, {{0, 0}, {1, 0}});
  ASSERT_TRUE(star.ok());
  const QueryWithGold& q = star.ValueOrDie();
  SgqEngine engine(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library);
  EngineOptions options;
  options.k = 50;
  auto result = engine.Query(q.query, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto leg_a = MakeIntentQuery(*dataset_, 0, 0);
  auto leg_b = MakeIntentQuery(*dataset_, 1, 0);
  ASSERT_TRUE(leg_a.ok() && leg_b.ok());
  // Every final match carries one path per leg ending at the pivot.
  for (const FinalMatch& m : result.ValueOrDie().matches) {
    ASSERT_EQ(m.parts.size(), 2u);
    EXPECT_EQ(m.parts[0].target(), m.pivot_match);
    EXPECT_EQ(m.parts[1].target(), m.pivot_match);
  }
}

TEST_F(EndToEndTest, DeepChainAlternatesExpandNonPivotAnswers) {
  auto q = MakeDeepChainQuery(*dataset_, 0, 0, 3, {{1, 0}});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  SgqEngine engine(dataset_->graph.get(), dataset_->space.get(),
                   &dataset_->library);
  auto decomposition = DecomposeQueryForPivot(
      q.ValueOrDie().query, 1, DecomposeOptions{});  // pivot = MidA
  ASSERT_TRUE(decomposition.ok());

  EngineOptions single;
  single.k = 40;
  single.dedup = DedupMode::kExactState;
  single.matches_per_target = 1;
  EngineOptions multi = single;
  multi.matches_per_target = 8;

  auto a = engine.QueryDecomposed(q.ValueOrDie().query,
                                  decomposition.ValueOrDie(), single);
  auto b = engine.QueryDecomposed(q.ValueOrDie().query,
                                  decomposition.ValueOrDie(), multi);
  ASSERT_TRUE(a.ok() && b.ok());
  auto answers_a = ExtractAnswers(a.ValueOrDie().matches,
                                  a.ValueOrDie().decomposition, 0);
  auto answers_b = ExtractAnswers(b.ValueOrDie().matches,
                                  b.ValueOrDie().decomposition, 0);
  EXPECT_GE(answers_b.size(), answers_a.size());
  EXPECT_GT(answers_b.size(), 0u);
}

TEST_F(EndToEndTest, NTriplesRoundTripPreservesQueryResults) {
  // Serialize the KG, parse it back, rebuild the predicate space against
  // the re-parsed graph, and verify a query returns the same answer names.
  const KnowledgeGraph& g1 = *dataset_->graph;
  auto parsed = ParseNTriples(WriteNTriples(g1));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const KnowledgeGraph& g2 = *parsed.ValueOrDie();
  ASSERT_EQ(g2.NumNodes(), g1.NumNodes());
  ASSERT_EQ(g2.NumEdges(), g1.NumEdges());

  auto space2 =
      PredicateSpace::Deserialize(dataset_->space->Serialize(), &g2);
  ASSERT_TRUE(space2.ok()) << space2.status().ToString();

  auto q = MakeIntentQuery(*dataset_, 0, 0);
  ASSERT_TRUE(q.ok());
  EngineOptions options;
  options.k = 25;

  SgqEngine e1(&g1, dataset_->space.get(), &dataset_->library);
  SgqEngine e2(&g2, &space2.ValueOrDie(), &dataset_->library);
  auto r1 = e1.Query(q.ValueOrDie().query, options);
  auto r2 = e2.Query(q.ValueOrDie().query, options);
  ASSERT_TRUE(r1.ok() && r2.ok());
  std::set<std::string> names1, names2;
  for (NodeId u : r1.ValueOrDie().AnswerIds()) {
    names1.insert(std::string(g1.NodeName(u)));
  }
  for (NodeId u : r2.ValueOrDie().AnswerIds()) {
    names2.insert(std::string(g2.NodeName(u)));
  }
  EXPECT_EQ(names1, names2);
}

TEST_F(EndToEndTest, TbqConvergesToSgqOnStarQuery) {
  auto star = MakeStarQuery(*dataset_, {{0, 0}, {1, 0}});
  ASSERT_TRUE(star.ok());
  const QueryWithGold& q = star.ValueOrDie();

  SgqEngine sgq(dataset_->graph.get(), dataset_->space.get(),
                &dataset_->library);
  EngineOptions options;
  options.k = 30;
  auto ref = sgq.Query(q.query, options);
  ASSERT_TRUE(ref.ok());

  SgqEngine tbq(dataset_->graph.get(), dataset_->space.get(),
                &dataset_->library);
  TimeBoundedOptions toptions;
  toptions.k = 30;
  toptions.time_bound_micros = 5'000'000;
  auto approx = tbq.Query(q.query, toptions);
  ASSERT_TRUE(approx.ok());
  EXPECT_GT(Jaccard(approx.ValueOrDie().AnswerIds(),
                    ref.ValueOrDie().AnswerIds()),
            0.85);
}

TEST_F(EndToEndTest, NoiseMonotonicallyDegradesOrHolds) {
  MethodContext context{dataset_->graph.get(), dataset_->space.get(),
                        &dataset_->library};
  SgqMethod sgq(context, EngineOptions{});
  auto base = MakeIntentQuery(*dataset_, 0, 0);
  ASSERT_TRUE(base.ok());
  auto clean = sgq.QueryTopK(base.ValueOrDie().query, 0,
                             base.ValueOrDie().gold.size());
  ASSERT_TRUE(clean.ok());
  Prf clean_prf = ComputePrf(clean.ValueOrDie(), base.ValueOrDie().gold);

  // Averaged over noise draws, noisy queries are no better than clean ones.
  Rng rng(4);
  double noisy_f1 = 0.0;
  const int trials = 12;
  for (int i = 0; i < trials; ++i) {
    QueryGraph noisy = base.ValueOrDie().query;
    AddEdgeNoise(*dataset_, &rng, &noisy);
    auto answers = sgq.QueryTopK(noisy, 0, base.ValueOrDie().gold.size());
    if (answers.ok()) {
      noisy_f1 += ComputePrf(answers.ValueOrDie(),
                             base.ValueOrDie().gold).f1;
    }
  }
  noisy_f1 /= trials;
  // A replacement by a near-equivalent predicate can re-rank marginally in
  // either direction; on average noise must not help beyond that wobble.
  EXPECT_LE(noisy_f1, clean_prf.f1 + 0.02);
}

}  // namespace
}  // namespace kgsearch
