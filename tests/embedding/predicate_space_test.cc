#include "embedding/predicate_space.h"

#include <gtest/gtest.h>

namespace kgsearch {
namespace {

PredicateSpace MakeAxisSpace() {
  // Three predicates along coordinate axes plus one diagonal.
  std::vector<FloatVec> vecs = {
      {1.0f, 0.0f, 0.0f},
      {0.0f, 1.0f, 0.0f},
      {0.0f, 0.0f, 1.0f},
      {1.0f, 1.0f, 0.0f},
  };
  return PredicateSpace(std::move(vecs), {"x", "y", "z", "xy"});
}

TEST(PredicateSpaceTest, CosineBasics) {
  PredicateSpace space = MakeAxisSpace();
  EXPECT_DOUBLE_EQ(space.Cosine(0, 0), 1.0);
  EXPECT_NEAR(space.Cosine(0, 1), 0.0, 1e-9);
  EXPECT_NEAR(space.Cosine(0, 3), 1.0 / std::sqrt(2.0), 1e-6);
}

TEST(PredicateSpaceTest, VectorsNormalizedAtConstruction) {
  PredicateSpace space = MakeAxisSpace();
  EXPECT_NEAR(Norm(space.Vector(3)), 1.0, 1e-6);
}

TEST(PredicateSpaceTest, WeightClampsToPositiveRange) {
  std::vector<FloatVec> vecs = {{1.0f, 0.0f}, {-1.0f, 0.0f}, {0.0f, 1.0f}};
  PredicateSpace space(std::move(vecs), {"a", "anti", "orth"});
  EXPECT_DOUBLE_EQ(space.Weight(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(space.Weight(0, 1), kMinWeight);  // cosine -1 clamps
  EXPECT_DOUBLE_EQ(space.Weight(0, 2), kMinWeight);  // cosine 0 clamps
}

TEST(PredicateSpaceTest, TopSimilarOrderingAndExclusion) {
  PredicateSpace space = MakeAxisSpace();
  auto top = space.TopSimilar(0, 10);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].predicate, 3u);  // xy is closest to x
  EXPECT_NEAR(top[0].similarity, 1.0 / std::sqrt(2.0), 1e-6);
  for (const auto& s : top) EXPECT_NE(s.predicate, 0u);
  // Truncation.
  EXPECT_EQ(space.TopSimilar(0, 1).size(), 1u);
}

TEST(PredicateSpaceTest, TopSimilarTieBreaksByAscendingId) {
  // Duplicate vectors create exact score ties; the contract (historically
  // from partial_sort's comparator, now from TopKHeap insertion order) is
  // ascending predicate id among ties.
  std::vector<FloatVec> vecs = {
      {1.0f, 0.0f},  // query
      {0.0f, 1.0f},  // orthogonal
      {1.0f, 1.0f},  // dup A
      {1.0f, 1.0f},  // dup B (same bits as A)
      {1.0f, 1.0f},  // dup C
  };
  PredicateSpace space(std::move(vecs), {"q", "o", "a", "b", "c"});
  auto top = space.TopSimilar(0, 5);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].predicate, 2u);
  EXPECT_EQ(top[1].predicate, 3u);
  EXPECT_EQ(top[2].predicate, 4u);
  EXPECT_EQ(top[3].predicate, 1u);
  EXPECT_EQ(top[0].similarity, top[1].similarity);
  EXPECT_EQ(top[1].similarity, top[2].similarity);
  // Truncation keeps the same prefix.
  auto top2 = space.TopSimilar(0, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].predicate, 2u);
  EXPECT_EQ(top2[1].predicate, 3u);
}

TEST(PredicateSpaceTest, SimilarityScanVisitsAllOthersInOrder) {
  PredicateSpace space = MakeAxisSpace();
  std::vector<PredicateId> visited;
  space.SimilarityScan(1, [&](PredicateId q, double sim) {
    visited.push_back(q);
    EXPECT_EQ(sim, space.Cosine(1, q)) << "q=" << q;
  });
  EXPECT_EQ(visited, (std::vector<PredicateId>{0, 2, 3}));
}

TEST(PredicateSpaceTest, WeightRowMatchesWeightBitwise) {
  PredicateSpace space = MakeAxisSpace();
  std::vector<double> row(space.NumPredicates());
  for (PredicateId q = 0; q < space.NumPredicates(); ++q) {
    space.WeightRow(q, row.size(), row.data());
    for (PredicateId p = 0; p < space.NumPredicates(); ++p) {
      EXPECT_EQ(row[p], space.Weight(q, p)) << "q=" << q << " p=" << p;
    }
  }
}

TEST(PredicateSpaceTest, StoreExposesNormalizedRows) {
  PredicateSpace space = MakeAxisSpace();
  const VectorStore& store = space.store();
  EXPECT_EQ(store.size(), space.NumPredicates());
  EXPECT_EQ(store.dim(), 3u);
  for (PredicateId p = 0; p < space.NumPredicates(); ++p) {
    EXPECT_EQ(store.RowVec(p), space.Vector(p));
  }
}

TEST(PredicateSpaceTest, DeserializeRejectsMixedDimensions) {
  EXPECT_FALSE(
      PredicateSpace::Deserialize("p1 2 1 0\np2 3 0 1 0\n", nullptr).ok());
}

TEST(PredicateSpaceTest, SerializeRoundTrip) {
  PredicateSpace space = MakeAxisSpace();
  auto parsed = PredicateSpace::Deserialize(space.Serialize(), nullptr);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const PredicateSpace& space2 = parsed.ValueOrDie();
  ASSERT_EQ(space2.NumPredicates(), 4u);
  for (PredicateId a = 0; a < 4; ++a) {
    EXPECT_EQ(space2.PredicateName(a), space.PredicateName(a));
    for (PredicateId b = 0; b < 4; ++b) {
      EXPECT_NEAR(space2.Cosine(a, b), space.Cosine(a, b), 1e-5);
    }
  }
}

TEST(PredicateSpaceTest, DeserializeAgainstGraphReorders) {
  KnowledgeGraph g;
  NodeId a = g.AddNode("A", "T");
  NodeId b = g.AddNode("B", "T");
  g.AddEdge(a, "p1", b);
  g.AddEdge(a, "p2", b);
  g.Finalize();
  // Serialized in the opposite order of the graph's predicate ids.
  const char* text =
      "p2 2 0 1\n"
      "p1 2 1 0\n";
  auto parsed = PredicateSpace::Deserialize(text, &g);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const PredicateSpace& space = parsed.ValueOrDie();
  EXPECT_EQ(space.PredicateName(g.FindPredicate("p1")), "p1");
  EXPECT_NEAR(space.Vector(g.FindPredicate("p1"))[0], 1.0f, 1e-6);
}

TEST(PredicateSpaceTest, DeserializeErrors) {
  EXPECT_FALSE(PredicateSpace::Deserialize("p1 0\n", nullptr).ok());
  EXPECT_FALSE(PredicateSpace::Deserialize("p1 3 0.5 0.5\n", nullptr).ok());

  KnowledgeGraph g;
  NodeId a = g.AddNode("A", "T");
  NodeId b = g.AddNode("B", "T");
  g.AddEdge(a, "p1", b);
  g.Finalize();
  // Unknown predicate name.
  EXPECT_FALSE(PredicateSpace::Deserialize("zz 2 1 0\n", &g).ok());
  // Missing predicate p1.
  EXPECT_FALSE(PredicateSpace::Deserialize("", &g).ok());
}

TEST(PredicateSpaceTest, FromTransEKeepsGraphOrder) {
  KnowledgeGraph g;
  NodeId a = g.AddNode("A", "T");
  NodeId b = g.AddNode("B", "T");
  g.AddEdge(a, "p1", b);
  g.AddEdge(b, "p2", a);
  g.Finalize();
  TransEEmbedding emb;
  emb.entity.assign(g.NumNodes(), FloatVec{1.0f, 0.0f});
  emb.predicate = {{1.0f, 0.0f}, {0.0f, 1.0f}};
  PredicateSpace space = PredicateSpace::FromTransE(g, emb);
  EXPECT_EQ(space.PredicateName(0), "p1");
  EXPECT_NEAR(space.Cosine(0, 1), 0.0, 1e-9);
}

}  // namespace
}  // namespace kgsearch
