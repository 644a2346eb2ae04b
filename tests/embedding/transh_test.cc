#include "embedding/transh.h"

#include <gtest/gtest.h>

#include "testing/car_fixture.h"
#include "util/binary_io.h"
#include "util/string_util.h"

namespace kgsearch {
namespace {

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

TEST(TransHTest, InputValidation) {
  KnowledgeGraph unfinalized;
  ASSERT_TRUE(unfinalized.AddTriple("A", "p", "B").ok());
  EXPECT_FALSE(TrainTransH(unfinalized, TransHConfig{}).ok());

  KnowledgeGraph empty;
  empty.Finalize();
  EXPECT_FALSE(TrainTransH(empty, TransHConfig{}).ok());

  KnowledgeGraph g;
  ASSERT_TRUE(g.AddTriple("A", "p", "B").ok());
  g.Finalize();
  TransHConfig config;
  config.dim = 0;
  EXPECT_FALSE(TrainTransH(g, config).ok());
}

TEST(TransHTest, ProducesAllVectorsWithUnitNormals) {
  KnowledgeGraph g = MakeCooccurrenceGraph();
  TransHConfig config;
  config.dim = 16;
  config.epochs = 5;
  auto result = TrainTransH(g, config);
  ASSERT_TRUE(result.ok());
  const TransHEmbedding& emb = result.ValueOrDie();
  EXPECT_EQ(emb.entity.size(), g.NumNodes());
  EXPECT_EQ(emb.translation.size(), g.NumPredicates());
  EXPECT_EQ(emb.normal.size(), g.NumPredicates());
  for (const FloatVec& w : emb.normal) {
    EXPECT_NEAR(Norm(w), 1.0, 1e-4);
  }
}

TEST(TransHTest, DeterministicForFixedSeed) {
  KnowledgeGraph g = MakeCooccurrenceGraph();
  TransHConfig config;
  config.dim = 8;
  config.epochs = 3;
  auto a = TrainTransH(g, config);
  auto b = TrainTransH(g, config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.ValueOrDie().translation, b.ValueOrDie().translation);
}

TEST(TransHTest, LossDecreasesWithTraining) {
  KnowledgeGraph g = MakeCooccurrenceGraph();
  TransHConfig short_run;
  short_run.dim = 16;
  short_run.epochs = 1;
  TransHConfig long_run = short_run;
  long_run.epochs = 40;
  auto a = TrainTransH(g, short_run);
  auto b = TrainTransH(g, long_run);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(b.ValueOrDie().final_epoch_loss, a.ValueOrDie().final_epoch_loss);
}

TEST(TransHTest, CooccurringPredicatesEmbedCloser) {
  KnowledgeGraph g = MakeCooccurrenceGraph();
  TransHConfig config;
  config.dim = 24;
  config.epochs = 60;
  config.learning_rate = 0.02;
  auto result = TrainTransH(g, config);
  ASSERT_TRUE(result.ok());
  PredicateSpace space =
      PredicateSpaceFromTransH(g, result.ValueOrDie());
  const double close = space.Cosine(g.FindPredicate("made_in"),
                                    g.FindPredicate("assembled_in"));
  const double far = space.Cosine(g.FindPredicate("made_in"),
                                  g.FindPredicate("speaks"));
  EXPECT_GT(close, far);
}

TEST(TransHTest, TranslationNearHyperplane) {
  KnowledgeGraph g = MakeCooccurrenceGraph();
  TransHConfig config;
  config.dim = 16;
  config.epochs = 30;
  config.orthogonality_weight = 1.0;
  auto result = TrainTransH(g, config);
  ASSERT_TRUE(result.ok());
  const TransHEmbedding& emb = result.ValueOrDie();
  for (PredicateId p = 0; p < g.NumPredicates(); ++p) {
    const double d_norm = Norm(emb.translation[p]);
    if (d_norm < 1e-9) continue;
    const double along =
        std::abs(Dot(emb.normal[p], emb.translation[p])) / d_norm;
    EXPECT_LT(along, 0.35) << g.PredicateName(p);
  }
}

/// Pins what training produces, so a rewrite of the training loop must
/// reproduce the same loss and the same vector bytes. Recorded with the
/// single-draw negative sampler on the car fixture's graph.
TEST(TransHTest, SingleDrawTrainingMatchesGolden) {
  testing_fixture::CarParts parts = testing_fixture::MakeCarParts();
  TransHConfig config;
  config.dim = 16;
  config.epochs = 5;
  auto result = TrainTransH(*parts.graph, config);
  ASSERT_TRUE(result.ok());
  const TransHEmbedding& emb = result.ValueOrDie();
  uint32_t crc = 0;
  for (const auto* vectors : {&emb.entity, &emb.translation, &emb.normal}) {
    for (const FloatVec& v : *vectors) {
      crc = Crc32Update(crc, v.data(), v.size() * sizeof(float));
    }
  }
  EXPECT_EQ(emb.final_epoch_loss, 0x1.2179144485936p+0);
  EXPECT_EQ(crc, 0x932cdb0au);
}

}  // namespace
}  // namespace kgsearch
