#include "core/semantic_weights.h"

#include <gtest/gtest.h>

#include "testing/test_world.h"

namespace kgsearch {
namespace {

using testing_helpers::MakeSingleEdgeSubQuery;
using testing_helpers::MakeSpaceWithCosines;

class SemanticWeightsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    anchor_ = graph_.AddNode("anchor", "Anchor");
    NodeId m = graph_.AddNode("mid", "Mid");
    NodeId t = graph_.AddNode("t", "Target");
    graph_.AddEdge(anchor_, "strong", m);
    graph_.AddEdge(m, "weak", t);
    graph_.InternPredicate("q");
    graph_.Finalize();
    space_ = MakeSpaceWithCosines(graph_, {{"strong", 0.9}, {"weak", 0.4}});
  }

  KnowledgeGraph graph_;
  std::unique_ptr<PredicateSpace> space_;
  NodeId anchor_;
};

TEST_F(SemanticWeightsTest, WeightRowsMatchSpace) {
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(graph_, anchor_, "q", "Target");
  SemanticWeights weights(graph_, space_.get(), &sub);
  EXPECT_NEAR(weights.Weight(0, graph_.FindPredicate("strong")), 0.9, 1e-6);
  EXPECT_NEAR(weights.Weight(0, graph_.FindPredicate("weak")), 0.4, 1e-6);
  EXPECT_NEAR(weights.Weight(0, graph_.FindPredicate("q")), 1.0, 1e-9);
}

TEST_F(SemanticWeightsTest, MaxAdjacentWeightPicksStrongestIncident) {
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(graph_, anchor_, "q", "Target");
  SemanticWeights weights(graph_, space_.get(), &sub);
  EXPECT_NEAR(weights.MaxAdjacentWeight(anchor_, 0), 0.9, 1e-6);
  EXPECT_NEAR(weights.MaxAdjacentWeight(graph_.FindNode("mid"), 0), 0.9,
              1e-6);
  EXPECT_NEAR(weights.MaxAdjacentWeight(graph_.FindNode("t"), 0), 0.4, 1e-6);
}

TEST_F(SemanticWeightsTest, CachesMaterializedNodes) {
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(graph_, anchor_, "q", "Target");
  SemanticWeights weights(graph_, space_.get(), &sub);
  EXPECT_EQ(weights.materialized_nodes(), 0u);
  weights.MaxAdjacentWeight(anchor_, 0);
  weights.MaxAdjacentWeight(anchor_, 0);  // cache hit, no growth
  EXPECT_EQ(weights.materialized_nodes(), 1u);
  weights.MaxAdjacentWeight(graph_.FindNode("mid"), 0);
  EXPECT_EQ(weights.materialized_nodes(), 2u);
}

TEST_F(SemanticWeightsTest, SuffixMaximaOverRemainingStages) {
  // Two-stage sub-query: stage 0 compares against "strong", stage 1 against
  // "weak". m(u, 0) must bound both remaining stages.
  ResolvedSubQuery sub;
  sub.edge_predicates = {graph_.FindPredicate("strong"),
                         graph_.FindPredicate("weak")};
  NodeConstraint start_c;
  start_c.specific = true;
  start_c.nodes = {anchor_};
  NodeConstraint mid_c;
  mid_c.specific = false;
  mid_c.types = {graph_.FindType("Mid")};
  NodeConstraint target_c;
  target_c.specific = false;
  target_c.types = {graph_.FindType("Target")};
  sub.node_constraints = {start_c, mid_c, target_c};
  sub.start_candidates = {anchor_};

  SemanticWeights weights(graph_, space_.get(), &sub);
  // sim(strong, strong)=1; sim(weak, strong)=cos(theta_w - theta_s) which
  // is below 1. Stage-0 bound at the anchor (incident: strong) is the max
  // over stages {0,1} of sim(stage_pred, strong) = 1.
  EXPECT_NEAR(weights.MaxAdjacentWeight(anchor_, 0), 1.0, 1e-6);
  // At stage 1, only sim(weak, .) rows matter.
  const double w_ss = space_->Weight(graph_.FindPredicate("weak"),
                                     graph_.FindPredicate("strong"));
  EXPECT_NEAR(weights.MaxAdjacentWeight(anchor_, 1), w_ss, 1e-9);
}

TEST_F(SemanticWeightsTest, MemoKeysDoNotAliasAcrossStages) {
  // m(u) is memoized per (node, stage): on a 257-stage sub-query, node a at
  // stage 256 and node a + 1 at stage 0 are different entries.
  KnowledgeGraph g;
  NodeId a = g.AddNode("a", "Anchor");
  NodeId b = g.AddNode("b", "Anchor");
  NodeId c = g.AddNode("c", "Mid");
  ASSERT_EQ(b, a + 1);
  g.AddEdge(a, "strong", c);
  g.AddEdge(b, "weak", c);
  g.InternPredicate("q");
  g.Finalize();
  auto space = MakeSpaceWithCosines(g, {{"strong", 0.9}, {"weak", 0.4}});
  ResolvedSubQuery sub;
  sub.edge_predicates.assign(257, g.FindPredicate("q"));
  NodeConstraint start_c;
  start_c.specific = true;
  start_c.nodes = {a};
  NodeConstraint any_c;
  any_c.types = {g.FindType("Mid")};
  sub.node_constraints.assign(258, any_c);
  sub.node_constraints.front() = start_c;
  sub.start_candidates = {a};

  SemanticWeights weights(g, space.get(), &sub);
  EXPECT_NEAR(weights.MaxAdjacentWeight(b, 0), 0.4, 1e-6);
  EXPECT_NEAR(weights.MaxAdjacentWeight(a, 256), 0.9, 1e-6);
  EXPECT_EQ(weights.materialized_nodes(), 2u);
}

}  // namespace
}  // namespace kgsearch
