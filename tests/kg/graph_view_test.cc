// GraphView semantics: a view without a delta is a pure passthrough of the
// base graph, and a view with a pinned DeltaSnapshot answers every read —
// sizes, dictionaries, adjacency, type membership, triple existence — with
// the merged result while the base stays untouched.
#include "kg/graph_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "kg/delta_overlay.h"

namespace kgsearch {
namespace {

std::unique_ptr<KnowledgeGraph> MakeBase() {
  auto graph = std::make_unique<KnowledgeGraph>();
  KnowledgeGraph& g = *graph;
  NodeId a = g.AddNode("A", "Person");
  NodeId b = g.AddNode("B", "Person");
  NodeId c = g.AddNode("C", "City");
  g.AddEdge(a, "knows", b);
  g.AddEdge(b, "lives_in", c);
  g.Finalize();
  return graph;
}

TEST(GraphViewTest, PassthroughWithoutDelta) {
  std::unique_ptr<KnowledgeGraph> base = MakeBase();
  const GraphView view(*base);  // implicit ctor, legacy call-site shape

  EXPECT_EQ(view.epoch(), 0u);
  EXPECT_EQ(view.delta(), nullptr);
  EXPECT_EQ(view.NumNodes(), base->NumNodes());
  EXPECT_EQ(view.NumEdges(), base->NumEdges());
  EXPECT_EQ(view.NumTypes(), base->NumTypes());
  EXPECT_EQ(view.NumPredicates(), base->NumPredicates());
  EXPECT_DOUBLE_EQ(view.AverageDegree(),
                   2.0 * static_cast<double>(base->NumEdges()) /
                       static_cast<double>(base->NumNodes()));

  const NodeId a = base->FindNode("A");
  EXPECT_EQ(view.FindNode("A"), a);
  EXPECT_EQ(view.NodeName(a), base->NodeName(a));
  EXPECT_EQ(view.NodeTypeName(a), base->NodeTypeName(a));
  EXPECT_EQ(view.FindNode("nope"), kInvalidNode);

  const auto base_adj = base->Neighbors(a);
  const auto view_adj = view.Neighbors(a);
  ASSERT_EQ(view_adj.size(), base_adj.size());
  EXPECT_TRUE(std::equal(view_adj.begin(), view_adj.end(), base_adj.begin()));
}

TEST(GraphViewTest, DeltaMergesNewNodesEdgesAndRetractions) {
  std::unique_ptr<KnowledgeGraph> base = MakeBase();
  const size_t base_nodes = base->NumNodes();
  const size_t base_edges = base->NumEdges();
  DeltaOverlay overlay(base.get());

  MutationBatch batch;
  batch.ops.push_back(Mutation::Add("D", "knows", "A", "Person"));
  batch.ops.push_back(Mutation::Retract("B", "lives_in", "C"));
  ASSERT_TRUE(overlay.Commit(batch).ok());

  std::shared_ptr<const DeltaSnapshot> pinned = overlay.Snapshot();
  ASSERT_NE(pinned, nullptr);
  const GraphView view(base.get(), pinned.get());

  // Sizes: one node added, one edge added + one retracted.
  EXPECT_EQ(view.epoch(), 1u);
  EXPECT_EQ(view.NumNodes(), base_nodes + 1);
  EXPECT_EQ(view.NumEdges(), base_edges);

  // New node id continues the base id range and resolves by name.
  const NodeId d = view.FindNode("D");
  ASSERT_NE(d, kInvalidNode);
  EXPECT_EQ(d, static_cast<NodeId>(base_nodes));
  EXPECT_EQ(view.NodeName(d), "D");
  EXPECT_EQ(view.NodeTypeName(d), "Person");

  // Merged adjacency of a touched base node includes the new edge ...
  const NodeId a = view.FindNode("A");
  const PredicateId knows = view.FindPredicate("knows");
  EXPECT_TRUE(view.HasTriple(d, knows, a));
  bool a_sees_d = false;
  for (const AdjEntry& e : view.Neighbors(a)) {
    if (e.neighbor == d) a_sees_d = true;
  }
  EXPECT_TRUE(a_sees_d);
  // ... and the merged list stays in canonical order.
  const auto merged = view.Neighbors(a);
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end(), AdjEntryLess));

  // The retraction is visible through the view only.
  const NodeId b = view.FindNode("B");
  const NodeId c = view.FindNode("C");
  const PredicateId lives_in = view.FindPredicate("lives_in");
  EXPECT_FALSE(view.HasTriple(b, lives_in, c));
  EXPECT_TRUE(base->HasTriple(b, lives_in, c));  // base untouched
  EXPECT_EQ(base->NumNodes(), base_nodes);
  EXPECT_EQ(base->NumEdges(), base_edges);
}

TEST(GraphViewTest, TypeMembershipConcatenatesSorted) {
  std::unique_ptr<KnowledgeGraph> base = MakeBase();
  DeltaOverlay overlay(base.get());

  MutationBatch batch;
  batch.ops.push_back(Mutation::Add("D", "knows", "A", "Person"));
  batch.ops.push_back(Mutation::Add("E", "knows", "A", "Person"));
  // A brand-new type exercises the delta-only type path.
  batch.ops.push_back(Mutation::Add("R2D2", "knows", "A", "Robot"));
  ASSERT_TRUE(overlay.Commit(batch).ok());
  std::shared_ptr<const DeltaSnapshot> pinned = overlay.Snapshot();
  const GraphView view(base.get(), pinned.get());

  const TypeId person = view.FindType("Person");
  ASSERT_NE(person, kInvalidSymbol);
  std::vector<NodeId> members;
  for (NodeId u : view.NodesOfType(person)) members.push_back(u);
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  EXPECT_EQ(members.size(), 4u);  // A, B + D, E

  const TypeId robot = view.FindType("Robot");
  ASSERT_NE(robot, kInvalidSymbol);
  EXPECT_GE(robot, static_cast<TypeId>(base->NumTypes()));
  const TypeMemberRange robots = view.NodesOfType(robot);
  ASSERT_EQ(robots.size(), 1u);
  EXPECT_EQ(view.NodeName(robots[0]), "R2D2");
  EXPECT_EQ(base->FindType("Robot"), kInvalidSymbol);  // base untouched
}

TEST(GraphViewTest, HasTripleRejectsOutOfRangeIdsAndSeesSelfLoops) {
  std::unique_ptr<KnowledgeGraph> base = MakeBase();
  const NodeId a = base->FindNode("A");
  const NodeId b = base->FindNode("B");
  const PredicateId knows = base->FindPredicate("knows");

  // Without a delta: out-of-range ids answer false instead of aborting.
  const GraphView plain(*base);
  const NodeId past_base = static_cast<NodeId>(base->NumNodes());
  EXPECT_TRUE(plain.HasTriple(a, knows, b));
  EXPECT_FALSE(plain.HasTriple(past_base, knows, b));
  EXPECT_FALSE(plain.HasTriple(kInvalidNode, knows, b));
  EXPECT_FALSE(plain.HasTriple(a, knows, past_base));
  EXPECT_FALSE(plain.HasTriple(a, kInvalidSymbol, b));

  // With a delta: self-loops on a base node and on a delta-born node.
  DeltaOverlay overlay(base.get());
  MutationBatch batch;
  batch.ops.push_back(Mutation::Add("A", "knows", "A"));
  batch.ops.push_back(Mutation::Add("D", "knows", "D", "Person"));
  ASSERT_TRUE(overlay.Commit(batch).ok());
  std::shared_ptr<const DeltaSnapshot> pinned = overlay.Snapshot();
  const GraphView view(base.get(), pinned.get());
  const NodeId d = view.FindNode("D");
  ASSERT_EQ(d, past_base);
  EXPECT_TRUE(view.HasTriple(a, knows, a));
  EXPECT_TRUE(view.HasTriple(d, knows, d));
  EXPECT_TRUE(view.HasTriple(a, knows, b));
  EXPECT_FALSE(view.HasTriple(d, knows, a));
  EXPECT_FALSE(base->HasTriple(a, knows, a));  // base untouched
  EXPECT_EQ(view.Degree(d), 2u);

  const NodeId past_view = static_cast<NodeId>(view.NumNodes());
  EXPECT_FALSE(view.HasTriple(past_view, knows, d));
  EXPECT_FALSE(view.HasTriple(kInvalidNode, knows, d));
  EXPECT_FALSE(view.HasTriple(d, knows, past_view));
  EXPECT_FALSE(view.HasTriple(d, kInvalidSymbol, d));

  // Retracting a self-loop removes both of its entries.
  MutationBatch retract;
  retract.ops.push_back(Mutation::Retract("D", "knows", "D"));
  ASSERT_TRUE(overlay.Commit(retract).ok());
  std::shared_ptr<const DeltaSnapshot> after = overlay.Snapshot();
  const GraphView view2(base.get(), after.get());
  EXPECT_FALSE(view2.HasTriple(d, knows, d));
  EXPECT_EQ(view2.Degree(d), 0u);
  EXPECT_TRUE(view.HasTriple(d, knows, d));  // the pinned epoch is unchanged
}

}  // namespace
}  // namespace kgsearch
