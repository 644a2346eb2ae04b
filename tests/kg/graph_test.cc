#include "kg/graph.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/string_util.h"

namespace kgsearch {
namespace {

KnowledgeGraph MakeSmallGraph() {
  KnowledgeGraph g;
  NodeId audi = g.AddNode("Audi_TT", "Automobile");
  NodeId germany = g.AddNode("Germany", "Country");
  NodeId vw = g.AddNode("Volkswagen", "Company");
  g.AddEdge(audi, "assembly", germany);
  g.AddEdge(audi, "manufacturer", vw);
  g.AddEdge(vw, "location", germany);
  g.Finalize();
  return g;
}

TEST(GraphTest, NodeAccessors) {
  KnowledgeGraph g = MakeSmallGraph();
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
  NodeId audi = g.FindNode("Audi_TT");
  ASSERT_NE(audi, kInvalidNode);
  EXPECT_EQ(g.NodeName(audi), "Audi_TT");
  EXPECT_EQ(g.NodeTypeName(audi), "Automobile");
  EXPECT_EQ(g.FindNode("BMW"), kInvalidNode);
}

TEST(GraphTest, AddNodeReturnsExistingAndKeepsType) {
  KnowledgeGraph g;
  NodeId a = g.AddNode("X", "T1");
  NodeId b = g.AddNode("X", "T2");  // type not overwritten
  EXPECT_EQ(a, b);
  g.Finalize();
  EXPECT_EQ(g.NodeTypeName(a), "T1");
}

TEST(GraphTest, DuplicateTriplesStoredOnce) {
  KnowledgeGraph g;
  NodeId a = g.AddNode("A", "T");
  NodeId b = g.AddNode("B", "T");
  g.AddEdge(a, "p", b);
  g.AddEdge(a, "p", b);
  g.AddEdge(a, "q", b);  // distinct predicate allowed
  g.Finalize();
  EXPECT_EQ(g.NumEdges(), 2u);

  // A repeat is dropped where it stands; first occurrences keep their
  // insertion order.
  KnowledgeGraph h;
  a = h.AddNode("A", "T");
  b = h.AddNode("B", "T");
  h.AddEdge(a, "p", b);
  h.AddEdge(a, "q", b);
  h.AddEdge(a, "p", b);
  h.Finalize();
  const PredicateId p = h.FindPredicate("p");
  const PredicateId q = h.FindPredicate("q");
  EXPECT_EQ(h.triples(), (std::vector<Triple>{{a, p, b}, {a, q, b}}));
  EXPECT_EQ(h.Degree(a), 2u);
  EXPECT_EQ(h.Degree(b), 2u);
}

TEST(GraphTest, NeighborsContainBothDirections) {
  KnowledgeGraph g = MakeSmallGraph();
  NodeId germany = g.FindNode("Germany");
  auto neighbors = g.Neighbors(germany);
  // Germany has two incoming edges: assembly (Audi), location (VW).
  ASSERT_EQ(neighbors.size(), 2u);
  for (const AdjEntry& e : neighbors) {
    EXPECT_FALSE(e.forward);  // both stored pointing at Germany
  }
  EXPECT_EQ(g.Degree(germany), 2u);
}

TEST(GraphTest, NeighborsSortedDeterministically) {
  KnowledgeGraph g;
  NodeId hub = g.AddNode("hub", "T");
  for (int i = 9; i >= 0; --i) {
    NodeId n = g.AddNode(StrFormat("n%d", i), "T");
    g.AddEdge(hub, "p", n);
  }
  g.Finalize();
  auto neighbors = g.Neighbors(hub);
  for (size_t i = 1; i < neighbors.size(); ++i) {
    EXPECT_LE(neighbors[i - 1].neighbor, neighbors[i].neighbor);
  }
}

TEST(GraphTest, TypeIndex) {
  KnowledgeGraph g = MakeSmallGraph();
  TypeId automobile = g.FindType("Automobile");
  ASSERT_NE(automobile, kInvalidSymbol);
  auto autos = g.NodesOfType(automobile);
  ASSERT_EQ(autos.size(), 1u);
  EXPECT_EQ(g.NodeName(autos[0]), "Audi_TT");
  EXPECT_TRUE(g.NodesOfType(999).empty());
}

TEST(GraphTest, HasTripleIsDirected) {
  KnowledgeGraph g = MakeSmallGraph();
  NodeId audi = g.FindNode("Audi_TT");
  NodeId germany = g.FindNode("Germany");
  PredicateId assembly = g.FindPredicate("assembly");
  EXPECT_TRUE(g.HasTriple(audi, assembly, germany));
  EXPECT_FALSE(g.HasTriple(germany, assembly, audi));
  EXPECT_FALSE(g.HasTriple(audi, g.FindPredicate("location"), germany));

  // Out-of-range ids answer false instead of aborting.
  const NodeId past_end = static_cast<NodeId>(g.NumNodes());
  EXPECT_FALSE(g.HasTriple(past_end, assembly, germany));
  EXPECT_FALSE(g.HasTriple(kInvalidNode, assembly, germany));
  EXPECT_FALSE(g.HasTriple(audi, assembly, past_end));
  EXPECT_FALSE(g.HasTriple(audi, assembly, kInvalidNode));
  EXPECT_FALSE(g.HasTriple(audi, kInvalidSymbol, germany));

  // A self-loop is one triple with both of its entries at the same node.
  KnowledgeGraph loop;
  NodeId a = loop.AddNode("A", "T");
  NodeId b = loop.AddNode("B", "T");
  loop.AddEdge(a, "p", a);
  loop.AddEdge(b, "p", a);
  loop.Finalize();
  const PredicateId p = loop.FindPredicate("p");
  EXPECT_TRUE(loop.HasTriple(a, p, a));
  EXPECT_TRUE(loop.HasTriple(b, p, a));
  EXPECT_FALSE(loop.HasTriple(a, p, b));
  EXPECT_FALSE(loop.HasTriple(b, p, b));
  EXPECT_EQ(loop.Degree(a), 3u);
}

TEST(GraphTest, AddTripleConvenience) {
  KnowledgeGraph g;
  ASSERT_TRUE(g.AddTriple("A", "knows", "B").ok());
  ASSERT_TRUE(g.AddTriple("B", "knows", "C").ok());
  g.Finalize();
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.NodeTypeName(g.FindNode("A")), "Thing");
}

TEST(GraphTest, AddTripleAfterFinalizeIsRejected) {
  // Regression: this used to silently corrupt the CSR indexes (the edge
  // landed in triples_ but never in adjacency). Post-finalize mutation must
  // go through the delta overlay; the base graph refuses it cleanly.
  KnowledgeGraph g;
  ASSERT_TRUE(g.AddTriple("A", "knows", "B").ok());
  g.Finalize();
  const Status late = g.AddTriple("B", "knows", "C");
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  // Nothing leaked into the finalized structures.
  EXPECT_EQ(g.NumNodes(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.FindNode("C"), kInvalidNode);
}

TEST(GraphTest, AverageDegree) {
  KnowledgeGraph g = MakeSmallGraph();
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0);  // 2*3 edges / 3 nodes
}

TEST(GraphTest, InternPredicateWithoutEdges) {
  KnowledgeGraph g;
  NodeId a = g.AddNode("A", "T");
  NodeId b = g.AddNode("B", "T");
  g.AddEdge(a, "real", b);
  PredicateId ghost = g.InternPredicate("query_only");
  g.Finalize();
  EXPECT_EQ(g.NumPredicates(), 2u);
  EXPECT_EQ(g.FindPredicate("query_only"), ghost);
}

TEST(GraphTest, SelfContainedEmptyGraphFinalize) {
  KnowledgeGraph g;
  g.Finalize();
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.0);
}

TEST(GraphTest, ParallelEdgesWithDistinctPredicates) {
  KnowledgeGraph g;
  NodeId a = g.AddNode("A", "T");
  NodeId b = g.AddNode("B", "T");
  g.AddEdge(a, "p1", b);
  g.AddEdge(a, "p2", b);
  g.AddEdge(b, "p1", a);  // reverse direction is a distinct triple
  g.Finalize();
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.Degree(a), 3u);
}

}  // namespace
}  // namespace kgsearch
