#include "embedding/transe.h"

#include <gtest/gtest.h>

#include "embedding/predicate_space.h"
#include "util/string_util.h"

namespace kgsearch {
namespace {

/// Two predicate groups: "made_in"/"assembled_in" connect products to
/// countries over heavily overlapping pairs; "speaks" connects people to
/// languages. TransE should embed the first two close together.
KnowledgeGraph MakeCooccurrenceGraph() {
  KnowledgeGraph g;
  for (int i = 0; i < 30; ++i) {
    NodeId prod = g.AddNode(StrFormat("Prod%d", i), "Product");
    NodeId country = g.AddNode(StrFormat("Ctry%d", i % 5), "Country");
    g.AddEdge(prod, "made_in", country);
    g.AddEdge(prod, "assembled_in", country);
  }
  for (int i = 0; i < 30; ++i) {
    NodeId person = g.AddNode(StrFormat("Pers%d", i), "Person");
    NodeId lang = g.AddNode(StrFormat("Lang%d", i % 5), "Language");
    g.AddEdge(person, "speaks", lang);
  }
  g.Finalize();
  return g;
}

TEST(TransETest, RejectsUnfinalizedGraph) {
  KnowledgeGraph g;
  ASSERT_TRUE(g.AddTriple("A", "p", "B").ok());
  TransEConfig config;
  EXPECT_FALSE(TrainTransE(g, config).ok());
}

TEST(TransETest, RejectsEmptyGraph) {
  KnowledgeGraph g;
  g.Finalize();
  EXPECT_FALSE(TrainTransE(g, TransEConfig{}).ok());
}

TEST(TransETest, RejectsZeroDim) {
  KnowledgeGraph g;
  ASSERT_TRUE(g.AddTriple("A", "p", "B").ok());
  g.Finalize();
  TransEConfig config;
  config.dim = 0;
  EXPECT_FALSE(TrainTransE(g, config).ok());
}

TEST(TransETest, ProducesVectorsForAllElements) {
  KnowledgeGraph g = MakeCooccurrenceGraph();
  TransEConfig config;
  config.dim = 16;
  config.epochs = 5;
  auto result = TrainTransE(g, config);
  ASSERT_TRUE(result.ok());
  const TransEEmbedding& emb = result.ValueOrDie();
  EXPECT_EQ(emb.entity.size(), g.NumNodes());
  EXPECT_EQ(emb.predicate.size(), g.NumPredicates());
  for (const FloatVec& v : emb.predicate) EXPECT_EQ(v.size(), 16u);
}

TEST(TransETest, DeterministicForFixedSeed) {
  KnowledgeGraph g = MakeCooccurrenceGraph();
  TransEConfig config;
  config.dim = 8;
  config.epochs = 3;
  auto a = TrainTransE(g, config);
  auto b = TrainTransE(g, config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.ValueOrDie().predicate, b.ValueOrDie().predicate);
}

TEST(TransETest, LossDecreasesWithTraining) {
  KnowledgeGraph g = MakeCooccurrenceGraph();
  TransEConfig short_run;
  short_run.dim = 16;
  short_run.epochs = 1;
  TransEConfig long_run = short_run;
  long_run.epochs = 40;
  auto a = TrainTransE(g, short_run);
  auto b = TrainTransE(g, long_run);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(b.ValueOrDie().final_epoch_loss,
            a.ValueOrDie().final_epoch_loss);
}

TEST(TransETest, CooccurringPredicatesEmbedCloser) {
  KnowledgeGraph g = MakeCooccurrenceGraph();
  TransEConfig config;
  config.dim = 24;
  config.epochs = 60;
  config.learning_rate = 0.02;
  auto result = TrainTransE(g, config);
  ASSERT_TRUE(result.ok());
  PredicateSpace space =
      PredicateSpace::FromTransE(g, result.ValueOrDie());
  PredicateId made = g.FindPredicate("made_in");
  PredicateId assembled = g.FindPredicate("assembled_in");
  PredicateId speaks = g.FindPredicate("speaks");
  const double close = space.Cosine(made, assembled);
  const double far = space.Cosine(made, speaks);
  EXPECT_GT(close, far) << "made_in/assembled_in should embed closer than "
                        << "made_in/speaks (close=" << close
                        << ", far=" << far << ")";
}

}  // namespace
}  // namespace kgsearch
