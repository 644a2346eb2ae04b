#include "match/node_matcher.h"

#include <gtest/gtest.h>

namespace kgsearch {
namespace {

class NodeMatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    NodeId audi = graph_.AddNode("Audi_TT", "Automobile");
    NodeId bmw = graph_.AddNode("BMW_320", "Automobile");
    NodeId germany = graph_.AddNode("Germany", "Country");
    graph_.AddEdge(audi, "assembly", germany);
    graph_.AddEdge(bmw, "assembly", germany);
    graph_.Finalize();
    library_.AddTypeSynonym("Car", "Automobile");
    library_.AddNameAbbreviation("GER", "Germany");
  }

  KnowledgeGraph graph_;
  TransformationLibrary library_;
};

TEST_F(NodeMatcherTest, MatchByNameIdentical) {
  NodeMatcher matcher(&graph_, &library_);
  auto m = matcher.MatchByName("Germany");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(graph_.NodeName(m[0]), "Germany");
}

TEST_F(NodeMatcherTest, MatchByNameAbbreviation) {
  NodeMatcher matcher(&graph_, &library_);
  auto m = matcher.MatchByName("GER");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(graph_.NodeName(m[0]), "Germany");
}

TEST_F(NodeMatcherTest, MatchByNameUnknownIsEmpty) {
  NodeMatcher matcher(&graph_, &library_);
  EXPECT_TRUE(matcher.MatchByName("Atlantis").empty());
}

TEST_F(NodeMatcherTest, MatchTypesViaSynonym) {
  NodeMatcher matcher(&graph_, &library_);
  auto types = matcher.MatchTypes("Car");
  ASSERT_EQ(types.size(), 1u);
  EXPECT_EQ(graph_.TypeName(types[0]), "Automobile");
  EXPECT_TRUE(matcher.MatchTypes("Planet").empty());
}

}  // namespace
}  // namespace kgsearch
