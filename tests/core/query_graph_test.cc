#include "core/query_graph.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "util/string_util.h"

namespace kgsearch {
namespace {

/// Figure 3(a): chain China -- ?auto -- ?device -- Germany.
QueryGraph MakeChainQueryGraph() {
  QueryGraph q;
  int auto_node = q.AddTargetNode("Automobile");       // v1
  int china = q.AddSpecificNode("Country", "China");   // v2
  int device = q.AddTargetNode("Device");              // v3
  int germany = q.AddSpecificNode("Country", "Germany");  // v4
  q.AddEdge(china, auto_node, "assembly");     // e1
  q.AddEdge(device, auto_node, "engine");      // e2 (paper names differ)
  q.AddEdge(germany, device, "manufacturer");  // e3
  return q;
}

/// Figure 3(c): triangle ?auto/?person/Germany.
QueryGraph MakeTriangleQueryGraph() {
  QueryGraph q;
  int auto_node = q.AddTargetNode("Automobile");          // v1
  int person = q.AddTargetNode("Person");                 // v2
  int germany = q.AddSpecificNode("Country", "Germany");  // v3
  q.AddEdge(auto_node, germany, "assembly");   // e1
  q.AddEdge(person, germany, "nationality");   // e2
  q.AddEdge(auto_node, person, "designer");    // e3
  return q;
}

TEST(QueryGraphTest, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(MakeChainQueryGraph().Validate().ok());
  EXPECT_TRUE(MakeTriangleQueryGraph().Validate().ok());
}

TEST(QueryGraphTest, ValidateRejectsDegenerateGraphs) {
  QueryGraph empty;
  EXPECT_FALSE(empty.Validate().ok());

  QueryGraph no_edges;
  no_edges.AddTargetNode("T");
  no_edges.AddSpecificNode("C", "X");
  EXPECT_FALSE(no_edges.Validate().ok());

  QueryGraph no_specific;
  int a = no_specific.AddTargetNode("A");
  int b = no_specific.AddTargetNode("B");
  no_specific.AddEdge(a, b, "p");
  EXPECT_FALSE(no_specific.Validate().ok());

  QueryGraph no_target;
  int c = no_target.AddSpecificNode("C", "X");
  int d = no_target.AddSpecificNode("C", "Y");
  no_target.AddEdge(c, d, "p");
  EXPECT_FALSE(no_target.Validate().ok());

  QueryGraph disconnected;
  int e = disconnected.AddSpecificNode("C", "X");
  int f = disconnected.AddTargetNode("T");
  disconnected.AddEdge(e, f, "p");
  disconnected.AddTargetNode("Island");
  EXPECT_FALSE(disconnected.Validate().ok());
}

TEST(QueryGraphTest, NodeKindPartitions) {
  QueryGraph q = MakeChainQueryGraph();
  EXPECT_EQ(q.TargetNodes(), (std::vector<int>{0, 2}));
  EXPECT_EQ(q.SpecificNodes(), (std::vector<int>{1, 3}));
}

TEST(DecomposeTest, ChainDecomposesAtAutomobilePivot) {
  QueryGraph q = MakeChainQueryGraph();
  DecomposeOptions options;
  options.avg_degree = 10.0;
  auto result = DecomposeQuery(q, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Decomposition& d = result.ValueOrDie();
  // The minimum-cost pivot is v1 (Automobile): legs of 1 and 2 edges beat
  // pivot v3 (Device) whose legs are 2 and 1 edges (costs tie) -- both are
  // optimal; check structure generically.
  EXPECT_FALSE(q.node(d.pivot).is_specific());
  std::set<int> covered;
  for (const SubQueryGraph& sub : d.subqueries) {
    EXPECT_TRUE(q.node(sub.node_seq.front()).is_specific());
    EXPECT_EQ(sub.node_seq.back(), d.pivot);
    EXPECT_EQ(sub.node_seq.size(), sub.edge_seq.size() + 1);
    for (int e : sub.edge_seq) {
      EXPECT_TRUE(covered.insert(e).second) << "edge covered twice";
    }
  }
  EXPECT_EQ(covered.size(), q.NumEdges());
}

TEST(DecomposeTest, SimpleQueryHasOneSubQuery) {
  QueryGraph q;
  int car = q.AddTargetNode("Automobile");
  int germany = q.AddSpecificNode("Country", "Germany");
  q.AddEdge(car, germany, "assembly");
  auto result = DecomposeQuery(q, DecomposeOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().pivot, car);
  ASSERT_EQ(result.ValueOrDie().subqueries.size(), 1u);
  EXPECT_EQ(result.ValueOrDie().subqueries[0].Length(), 1u);
}

TEST(DecomposeTest, TriangleCoversAllEdges) {
  QueryGraph q = MakeTriangleQueryGraph();
  auto result = DecomposeQuery(q, DecomposeOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Decomposition& d = result.ValueOrDie();
  std::set<int> covered;
  for (const SubQueryGraph& sub : d.subqueries) {
    for (int e : sub.edge_seq) covered.insert(e);
  }
  EXPECT_EQ(covered.size(), 3u);
}

TEST(DecomposeTest, StarPivotIsCenter) {
  QueryGraph q;
  int center = q.AddTargetNode("Automobile");
  for (int i = 0; i < 3; ++i) {
    int anchor = q.AddSpecificNode("Country", StrFormat("C%d", i));
    q.AddEdge(center, anchor, StrFormat("p%d", i));
  }
  auto result = DecomposeQuery(q, DecomposeOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().pivot, center);
  EXPECT_EQ(result.ValueOrDie().subqueries.size(), 3u);
}

TEST(DecomposeTest, MinCostPrefersShorterLegs) {
  // Path: S -- t1 -- t2, where S is specific. Pivot t1 gives legs {1 edge}
  // plus an uncoverable edge... actually pivot t1 covers e2 only via a path
  // S-t1-t2? No: paths must end at the pivot. Pivot t2 covers everything
  // with one 2-edge leg; pivot t1 cannot cover edge t1-t2. So only t2 is
  // feasible.
  QueryGraph q;
  int s = q.AddSpecificNode("C", "S");
  int t1 = q.AddTargetNode("T1");
  int t2 = q.AddTargetNode("T2");
  q.AddEdge(s, t1, "p1");
  q.AddEdge(t1, t2, "p2");
  auto result = DecomposeQuery(q, DecomposeOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().pivot, t2);
  EXPECT_EQ(result.ValueOrDie().subqueries.size(), 1u);
  EXPECT_EQ(result.ValueOrDie().subqueries[0].Length(), 2u);
}

TEST(DecomposeTest, CostGrowsWithPathLength) {
  QueryGraph chain;
  int s = chain.AddSpecificNode("C", "S");
  int t = chain.AddTargetNode("T");
  chain.AddEdge(s, t, "p");
  QueryGraph longer;
  int s2 = longer.AddSpecificNode("C", "S");
  int mid = longer.AddTargetNode("M");
  int t2 = longer.AddTargetNode("T");
  longer.AddEdge(s2, mid, "p1");
  longer.AddEdge(mid, t2, "p2");

  DecomposeOptions options;
  options.avg_degree = 10.0;
  auto a = DecomposeQuery(chain, options);
  auto b = DecomposeQuery(longer, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(a.ValueOrDie().cost, b.ValueOrDie().cost);
}

TEST(DecomposeTest, ForcedPivotWorksAndRejectsBadPivot) {
  QueryGraph q = MakeTriangleQueryGraph();
  // Both target nodes are feasible pivots for the triangle.
  auto at_auto = DecomposeQueryForPivot(q, 0, DecomposeOptions{});
  ASSERT_TRUE(at_auto.ok());
  EXPECT_EQ(at_auto.ValueOrDie().pivot, 0);
  auto at_person = DecomposeQueryForPivot(q, 1, DecomposeOptions{});
  ASSERT_TRUE(at_person.ok());
  EXPECT_EQ(at_person.ValueOrDie().pivot, 1);
  // A specific node cannot be the pivot.
  EXPECT_FALSE(DecomposeQueryForPivot(q, 2, DecomposeOptions{}).ok());
  EXPECT_FALSE(DecomposeQueryForPivot(q, 99, DecomposeOptions{}).ok());
}

TEST(DecomposeTest, RandomStrategyIsSeededAndFeasible) {
  QueryGraph q = MakeChainQueryGraph();
  DecomposeOptions options;
  options.strategy = PivotStrategy::kRandom;
  options.seed = 7;
  auto a = DecomposeQuery(q, options);
  auto b = DecomposeQuery(q, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.ValueOrDie().pivot, b.ValueOrDie().pivot);
  std::set<int> covered;
  for (const SubQueryGraph& sub : a.ValueOrDie().subqueries) {
    for (int e : sub.edge_seq) covered.insert(e);
  }
  EXPECT_EQ(covered.size(), q.NumEdges());
}

TEST(DecomposeTest, PathsMayPassThroughSpecificNodes) {
  // Specific--specific edge is covered by a path running through it.
  QueryGraph q;
  int a = q.AddSpecificNode("C", "A");
  int b = q.AddSpecificNode("C", "B");
  int t = q.AddTargetNode("T");
  q.AddEdge(a, b, "p1");
  q.AddEdge(b, t, "p2");
  auto result = DecomposeQuery(q, DecomposeOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::set<int> covered;
  for (const SubQueryGraph& sub : result.ValueOrDie().subqueries) {
    for (int e : sub.edge_seq) covered.insert(e);
  }
  EXPECT_EQ(covered.size(), 2u);
}

TEST(DecomposeTest, InfeasibleQueryFails) {
  // A cycle among target nodes hanging off one specific node cannot be
  // covered by node-simple specific-to-pivot paths.
  QueryGraph q;
  int s = q.AddSpecificNode("C", "S");
  int t1 = q.AddTargetNode("T1");
  int t2 = q.AddTargetNode("T2");
  int t3 = q.AddTargetNode("T3");
  q.AddEdge(s, t1, "p1");
  q.AddEdge(t1, t2, "p2");
  q.AddEdge(t2, t3, "p3");
  q.AddEdge(t3, t1, "p4");
  auto result = DecomposeQuery(q, DecomposeOptions{});
  EXPECT_FALSE(result.ok());
}

// The Eq. 1 cost of a path, max(d, 2)^(n̂ * length), overflows a double
// once n̂ * length * log2(max(d, 2)) passes 1024. A query is refused naming
// n_hat only when every cover overflows; while some cover stays finite,
// the longer candidates that overflow are simply never chosen.
TEST(DecomposeTest, NHatIsBlamedOnlyWhenEveryCoverOverflows) {
  QueryGraph q;
  int p = q.AddTargetNode("P");
  int a = q.AddTargetNode("A");
  int b = q.AddTargetNode("B");
  int s1 = q.AddSpecificNode("S", "s1");
  int s2 = q.AddSpecificNode("S", "s2");
  q.AddEdge(s1, p, "e0");
  q.AddEdge(s2, a, "e1");
  q.AddEdge(a, p, "e2");
  q.AddEdge(s1, b, "e3");
  q.AddEdge(b, s2, "e4");
  DecomposeOptions options;
  options.avg_degree = 2.0;

  // n̂ = 300: pivots P and A are covered by a 3-edge and a 2-edge path
  // (2^900 + 2^600); every cover of B needs a 4-edge path (2^1200 = inf).
  options.n_hat = 300;
  auto chosen = DecomposeQuery(q, options);
  ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
  EXPECT_NE(chosen.ValueOrDie().pivot, b);
  EXPECT_EQ(chosen.ValueOrDie().cost,
            std::ldexp(1.0, 900) + std::ldexp(1.0, 600));
  auto forced = DecomposeQueryForPivot(q, b, options);
  ASSERT_FALSE(forced.ok());
  EXPECT_NE(forced.status().message().find("n_hat 300"), std::string::npos)
      << forced.status().ToString();

  // n̂ = 400: 3-edge paths overflow too, so every cover of every pivot does.
  options.n_hat = 400;
  auto refused = DecomposeQuery(q, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("n_hat 400"), std::string::npos)
      << refused.status().ToString();

  // A query with no cover at all keeps its own refusal at any n̂.
  QueryGraph cycle;
  int s = cycle.AddSpecificNode("C", "S");
  int t1 = cycle.AddTargetNode("T1");
  int t2 = cycle.AddTargetNode("T2");
  int t3 = cycle.AddTargetNode("T3");
  cycle.AddEdge(s, t1, "p1");
  cycle.AddEdge(t1, t2, "p2");
  cycle.AddEdge(t2, t3, "p3");
  cycle.AddEdge(t3, t1, "p4");
  auto uncoverable = DecomposeQuery(cycle, options);
  ASSERT_FALSE(uncoverable.ok());
  EXPECT_EQ(uncoverable.status().message().find("n_hat"), std::string::npos)
      << uncoverable.status().ToString();
}

}  // namespace
}  // namespace kgsearch
