#include "core/astar_search.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "testing/test_world.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace kgsearch {
namespace {

using testing_helpers::BruteForceBestPss;
using testing_helpers::MakeSingleEdgeSubQuery;
using testing_helpers::MakeSpaceWithCosines;

/// Figure 8-style world: one anchor (Germany) connected to automobiles via
/// a 1-hop strong schema, a 2-hop strong schema, and a 2-hop weak schema.
struct CarWorld {
  KnowledgeGraph graph;
  std::unique_ptr<PredicateSpace> space;
  NodeId germany;

  CarWorld() {
    germany = graph.AddNode("Germany", "Country");
    NodeId bmw = graph.AddNode("BMW_320", "Automobile");
    NodeId audi = graph.AddNode("Audi_TT", "Automobile");
    NodeId kia = graph.AddNode("KIA_K5", "Automobile");
    NodeId regensburg = graph.AddNode("Regensburg", "City");
    NodeId schreyer = graph.AddNode("Peter_Schreyer", "Person");
    graph.AddEdge(bmw, "assembly", germany);               // pss 0.98
    graph.AddEdge(audi, "assembly", regensburg);
    graph.AddEdge(regensburg, "country", germany);         // pss ~0.93
    graph.AddEdge(kia, "designer", schreyer);
    graph.AddEdge(schreyer, "nationality", germany);       // pss ~0.52
    graph.InternPredicate("q");
    graph.Finalize();
    space = MakeSpaceWithCosines(graph, {{"assembly", 0.98},
                                         {"country", 0.88},
                                         {"designer", 0.55},
                                         {"nationality", 0.50}});
  }
};

TEST(AStarSearchTest, InputValidation) {
  CarWorld world;
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(world.graph, world.germany, "q", "Automobile");
  AStarConfig config;

  ResolvedSubQuery empty = sub;
  empty.edge_predicates.clear();
  EXPECT_FALSE(AStarSearch(world.graph, *world.space, empty, config).ok());

  AStarConfig bad = config;
  bad.n_hat = 0;
  EXPECT_FALSE(AStarSearch(world.graph, *world.space, sub, bad).ok());
  bad = config;
  bad.tau = 0.0;
  EXPECT_FALSE(AStarSearch(world.graph, *world.space, sub, bad).ok());
  bad = config;
  bad.anytime = true;  // without should_stop
  EXPECT_FALSE(AStarSearch(world.graph, *world.space, sub, bad).ok());
  // Stage, hop and depth counters are 16-bit, so n̂ · L must fit in them.
  bad = config;
  bad.n_hat = 65535;
  EXPECT_TRUE(AStarSearch(world.graph, *world.space, sub, bad).ok());
  bad.n_hat = 65536;
  EXPECT_EQ(AStarSearch(world.graph, *world.space, sub, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AStarSearchTest, RanksByPathSemanticSimilarity) {
  CarWorld world;
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(world.graph, world.germany, "q", "Automobile");
  AStarConfig config;
  config.k = 10;
  config.tau = 0.4;
  config.n_hat = 4;

  SearchStats stats;
  auto result = AStarSearch(world.graph, *world.space, sub, config, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& matches = result.ValueOrDie();
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(world.graph.NodeName(matches[0].target()), "BMW_320");
  EXPECT_NEAR(matches[0].pss, 0.98, 1e-6);
  EXPECT_EQ(world.graph.NodeName(matches[1].target()), "Audi_TT");
  EXPECT_NEAR(matches[1].pss, std::sqrt(0.98 * 0.88), 1e-6);
  EXPECT_EQ(world.graph.NodeName(matches[2].target()), "KIA_K5");
  EXPECT_NEAR(matches[2].pss, std::sqrt(0.55 * 0.50), 1e-6);
  // Descending pss.
  EXPECT_GE(matches[0].pss, matches[1].pss);
  EXPECT_GE(matches[1].pss, matches[2].pss);
  EXPECT_EQ(stats.goals_emitted, 3u);
}

TEST(AStarSearchTest, PathMatchCarriesFullPath) {
  CarWorld world;
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(world.graph, world.germany, "q", "Automobile");
  AStarConfig config;
  config.tau = 0.4;
  auto result = AStarSearch(world.graph, *world.space, sub, config);
  ASSERT_TRUE(result.ok());
  const PathMatch& audi = result.ValueOrDie()[1];
  ASSERT_EQ(audi.nodes.size(), 3u);
  EXPECT_EQ(world.graph.NodeName(audi.nodes[0]), "Germany");
  EXPECT_EQ(world.graph.NodeName(audi.nodes[1]), "Regensburg");
  EXPECT_EQ(world.graph.NodeName(audi.nodes[2]), "Audi_TT");
  ASSERT_EQ(audi.predicates.size(), 2u);
  ASSERT_EQ(audi.weights.size(), 2u);
  EXPECT_NEAR(audi.weights[0] * audi.weights[1], 0.98 * 0.88, 1e-6);
  ASSERT_EQ(audi.stage_ends.size(), 1u);
  EXPECT_EQ(audi.stage_ends[0], 2u);
  EXPECT_EQ(audi.MatchOfQueryNode(0), audi.nodes[0]);
  EXPECT_EQ(audi.MatchOfQueryNode(1), audi.nodes[2]);
}

TEST(AStarSearchTest, TauPrunesWeakMatches) {
  CarWorld world;
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(world.graph, world.germany, "q", "Automobile");
  AStarConfig config;
  config.tau = 0.8;  // the designer/nationality path (~0.52) must vanish
  SearchStats stats;
  auto result = AStarSearch(world.graph, *world.space, sub, config, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().size(), 2u);
  EXPECT_GT(stats.pruned_tau, 0u);
}

TEST(AStarSearchTest, TopKLimitsOutput) {
  CarWorld world;
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(world.graph, world.germany, "q", "Automobile");
  AStarConfig config;
  config.k = 1;
  config.tau = 0.4;
  auto result = AStarSearch(world.graph, *world.space, sub, config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.ValueOrDie().size(), 1u);
  EXPECT_EQ(world.graph.NodeName(result.ValueOrDie()[0].target()), "BMW_320");
}

TEST(AStarSearchTest, NHatBoundsPathLength) {
  CarWorld world;
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(world.graph, world.germany, "q", "Automobile");
  AStarConfig config;
  config.tau = 0.4;
  config.n_hat = 1;  // only the direct assembly edge qualifies
  auto result = AStarSearch(world.graph, *world.space, sub, config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.ValueOrDie().size(), 1u);
  EXPECT_EQ(world.graph.NodeName(result.ValueOrDie()[0].target()), "BMW_320");
}

TEST(AStarSearchTest, EstimateIsAdmissibleSoFirstGoalIsBest) {
  // A deceptive world: a greedy first hop (0.99) leads only to a weak
  // completion, while a modest first hop (0.9) completes strongly. The
  // admissible estimate must still surface the globally best match first.
  KnowledgeGraph g;
  NodeId s = g.AddNode("S", "Anchor");
  NodeId trap = g.AddNode("Trap", "Mid");
  NodeId good = g.AddNode("Good", "Mid");
  NodeId t1 = g.AddNode("T1", "Target");
  NodeId t2 = g.AddNode("T2", "Target");
  g.AddEdge(s, "shiny", trap);    // 0.99
  g.AddEdge(trap, "dull", t1);    // 0.30 -> pss ~ sqrt(0.297) = 0.545
  g.AddEdge(s, "solid", good);    // 0.90
  g.AddEdge(good, "solid2", t2);  // 0.88 -> pss ~ sqrt(0.792) = 0.89
  g.InternPredicate("q");
  g.Finalize();
  auto space = MakeSpaceWithCosines(
      g, {{"shiny", 0.99}, {"dull", 0.30}, {"solid", 0.90}, {"solid2", 0.88}});

  ResolvedSubQuery sub = MakeSingleEdgeSubQuery(g, s, "q", "Target");
  AStarConfig config;
  config.k = 2;
  config.tau = 0.2;
  auto result = AStarSearch(g, *space, sub, config);
  ASSERT_TRUE(result.ok());
  const auto& matches = result.ValueOrDie();
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(g.NodeName(matches[0].target()), "T2");
  EXPECT_NEAR(matches[0].pss, std::sqrt(0.90 * 0.88), 1e-6);
}

TEST(AStarSearchTest, MultiEdgeSubQueryRespectsIntermediateConstraint) {
  // Query path: anchor --e1-- ?Device --e2-- ?Automobile. The intermediate
  // node must have type Device; a same-shape path through a Person must not
  // match even with perfect weights.
  KnowledgeGraph g;
  NodeId anchor = g.AddNode("Germany", "Country");
  NodeId engine = g.AddNode("EA211", "Device");
  NodeId person = g.AddNode("Dr_Mueller", "Person");
  NodeId car1 = g.AddNode("Lamando", "Automobile");
  NodeId car2 = g.AddNode("Phaeton", "Automobile");
  g.AddEdge(engine, "made_in", anchor);
  g.AddEdge(car1, "engine", engine);
  g.AddEdge(person, "made_in", anchor);  // wrong intermediate type
  g.AddEdge(car2, "engine", person);
  g.InternPredicate("q");
  g.InternPredicate("q2");
  g.Finalize();
  std::vector<FloatVec> vecs(g.NumPredicates(), FloatVec{1.0f, 0.0f});
  std::vector<std::string> names;
  for (PredicateId p = 0; p < g.NumPredicates(); ++p) {
    names.emplace_back(g.PredicateName(p));
  }
  PredicateSpace space(std::move(vecs), std::move(names));  // all sims = 1

  ResolvedSubQuery sub;
  sub.edge_predicates = {g.FindPredicate("q"), g.FindPredicate("q2")};
  NodeConstraint start_c;
  start_c.specific = true;
  start_c.nodes = {anchor};
  NodeConstraint mid_c;
  mid_c.specific = false;
  mid_c.types = {g.FindType("Device")};
  NodeConstraint target_c;
  target_c.specific = false;
  target_c.types = {g.FindType("Automobile")};
  sub.node_constraints = {start_c, mid_c, target_c};
  sub.start_candidates = {anchor};

  AStarConfig config;
  config.tau = 0.5;
  auto result = AStarSearch(g, space, sub, config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.ValueOrDie().size(), 1u);
  const PathMatch& m = result.ValueOrDie()[0];
  EXPECT_EQ(g.NodeName(m.target()), "Lamando");
  ASSERT_EQ(m.stage_ends.size(), 2u);
  EXPECT_EQ(g.NodeName(m.MatchOfQueryNode(1)), "EA211");
}

TEST(AStarSearchTest, PaperModeUsesVisitedSetPruning) {
  CarWorld world;
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(world.graph, world.germany, "q", "Automobile");
  AStarConfig config;
  config.tau = 0.4;
  config.dedup = DedupMode::kPaperNodeVisited;
  SearchStats paper_stats;
  auto paper = AStarSearch(world.graph, *world.space, sub, config,
                           &paper_stats);
  config.dedup = DedupMode::kExactState;
  SearchStats exact_stats;
  auto exact = AStarSearch(world.graph, *world.space, sub, config,
                           &exact_stats);
  ASSERT_TRUE(paper.ok() && exact.ok());
  // Both modes reach the same targets and agree on the best match; the
  // exact mode may report higher pss for lower-ranked targets because it
  // optimizes over walks (e.g. bouncing Germany->Regensburg->Germany
  // inflates a geometric mean), which the paper's visited set forbids.
  ASSERT_EQ(paper.ValueOrDie().size(), exact.ValueOrDie().size());
  EXPECT_EQ(paper.ValueOrDie()[0].target(), exact.ValueOrDie()[0].target());
  EXPECT_NEAR(paper.ValueOrDie()[0].pss, exact.ValueOrDie()[0].pss, 1e-9);
  for (size_t i = 0; i < paper.ValueOrDie().size(); ++i) {
    EXPECT_LE(paper.ValueOrDie()[i].pss,
              exact.ValueOrDie()[i].pss + 1e-9);
    // Every paper-mode match is a simple path (no repeated nodes).
    const auto& nodes = paper.ValueOrDie()[i].nodes;
    std::set<NodeId> uniq(nodes.begin(), nodes.end());
    EXPECT_EQ(uniq.size(), nodes.size());
  }
  EXPECT_LE(paper_stats.pushed, exact_stats.pushed);
}

TEST(AStarSearchTest, MaxExpansionsIsHonored) {
  CarWorld world;
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(world.graph, world.germany, "q", "Automobile");
  AStarConfig config;
  config.tau = 0.4;
  config.max_expansions = 1;
  SearchStats stats;
  auto result = AStarSearch(world.graph, *world.space, sub, config, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(stats.popped, 1u);
}

TEST(AStarSearchTest, AnytimeCollectsOnGenerationAndStops) {
  CarWorld world;
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(world.graph, world.germany, "q", "Automobile");
  AStarConfig config;
  config.tau = 0.4;
  config.anytime = true;
  config.stop_check_interval = 1;
  size_t calls = 0;
  config.should_stop = [&calls](size_t) { return ++calls > 1000; };
  SearchStats stats;
  auto result = AStarSearch(world.graph, *world.space, sub, config, &stats);
  ASSERT_TRUE(result.ok());
  // All three matches found before exhaustion; sorted by pss descending.
  ASSERT_EQ(result.ValueOrDie().size(), 3u);
  EXPECT_GE(result.ValueOrDie()[0].pss, result.ValueOrDie()[1].pss);
  EXPECT_TRUE(stats.exhausted);
}

TEST(AStarSearchTest, AnytimeStopSignalTruncatesSearch) {
  CarWorld world;
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(world.graph, world.germany, "q", "Automobile");
  AStarConfig config;
  config.tau = 0.4;
  config.anytime = true;
  config.stop_check_interval = 1;
  config.should_stop = [](size_t) { return true; };  // stop immediately
  SearchStats stats;
  auto result = AStarSearch(world.graph, *world.space, sub, config, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(stats.stopped_early);
  EXPECT_LE(stats.popped, 2u);
}

TEST(AStarSearchTest, AnytimeMatchCapKeepsBest) {
  CarWorld world;
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(world.graph, world.germany, "q", "Automobile");
  AStarConfig config;
  config.tau = 0.4;
  config.anytime = true;
  config.anytime_match_cap = 1;
  config.should_stop = [](size_t) { return false; };
  auto result = AStarSearch(world.graph, *world.space, sub, config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.ValueOrDie().size(), 1u);
  EXPECT_EQ(world.graph.NodeName(result.ValueOrDie()[0].target()), "BMW_320");
}

TEST(AStarSearchTest, ExactStateKeysDoNotAliasPastHop255) {
  // A 258-node p-chain c0 .. c257 whose only Y node is c256, plus
  // c257 -q-> T. Every route to T enters stage 1 at c256, and each stage-1
  // state (c, 1, h) has a stage-0 twin (c, 0, 256 + h) that pops first. The
  // dedup key must tell the two apart, or every route to T is pruned.
  KnowledgeGraph g;
  std::vector<NodeId> chain;
  for (int i = 0; i < 258; ++i) {
    chain.push_back(g.AddNode(StrFormat("c%d", i), i == 256 ? "Y" : "X"));
  }
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    g.AddEdge(chain[i], "p", chain[i + 1]);
  }
  NodeId t = g.AddNode("T", "Z");
  g.AddEdge(chain.back(), "q", t);
  g.Finalize();
  auto space = MakeSpaceWithCosines(g, {{"p", 0.9}});

  ResolvedSubQuery sub;
  sub.edge_predicates = {g.FindPredicate("p"), g.FindPredicate("q")};
  NodeConstraint start_c;
  start_c.specific = true;
  start_c.nodes = {chain.front()};
  NodeConstraint mid_c;
  mid_c.types = {g.FindType("Y")};
  NodeConstraint target_c;
  target_c.types = {g.FindType("Z")};
  sub.node_constraints = {start_c, mid_c, target_c};
  sub.start_candidates = {chain.front()};

  AStarConfig config;
  config.dedup = DedupMode::kExactState;
  config.n_hat = 300;
  config.tau = 0.8;
  auto result = AStarSearch(g, *space, sub, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.ValueOrDie().size(), 1u);
  EXPECT_EQ(result.ValueOrDie()[0].target(), t);
}

/// Random-graph property sweep: the exact-state mode must agree with the
/// brute-force DP on every target's best pss, across seeds.
class AStarRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(AStarRandomSweep, ExactModeMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  KnowledgeGraph g;
  const int num_nodes = 24;
  const char* preds[] = {"p0", "p1", "p2", "p3", "p4"};
  const double cosines[] = {0.95, 0.85, 0.7, 0.55, 0.35};
  NodeId anchor = g.AddNode("anchor", "Anchor");
  for (int i = 0; i < num_nodes; ++i) {
    g.AddNode(StrFormat("n%d", i),
              rng.Bernoulli(0.3) ? "Target" : "Mid");
  }
  const size_t total = g.NumNodes();
  for (int e = 0; e < 70; ++e) {
    NodeId a = static_cast<NodeId>(rng.UniformIndex(total));
    NodeId b = static_cast<NodeId>(rng.UniformIndex(total));
    if (a == b) continue;
    g.AddEdge(a, preds[rng.UniformIndex(5)], b);
  }
  g.InternPredicate("q");
  g.Finalize();
  std::map<std::string, double> cos_map;
  for (int i = 0; i < 5; ++i) cos_map[preds[i]] = cosines[i];
  auto space = MakeSpaceWithCosines(g, cos_map);

  if (g.FindType("Target") == kInvalidSymbol) GTEST_SKIP();
  ResolvedSubQuery sub = MakeSingleEdgeSubQuery(g, anchor, "q", "Target");

  const double tau = 0.3;
  const size_t n_hat = 3;
  auto truth = BruteForceBestPss(g, *space, sub, n_hat, tau);

  AStarConfig config;
  config.k = 1000;
  config.tau = tau;
  config.n_hat = n_hat;
  config.dedup = DedupMode::kExactState;
  auto result = AStarSearch(g, *space, sub, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& matches = result.ValueOrDie();

  ASSERT_EQ(matches.size(), truth.size())
      << "seed " << GetParam() << ": search found " << matches.size()
      << " targets, brute force " << truth.size();
  for (const PathMatch& m : matches) {
    auto it = truth.find(m.target());
    ASSERT_NE(it, truth.end());
    EXPECT_NEAR(m.pss, it->second, 1e-9)
        << "target " << g.NodeName(m.target()) << " seed " << GetParam();
  }
  // Matches sorted by descending pss.
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_GE(matches[i - 1].pss + 1e-12, matches[i].pss);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AStarRandomSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace kgsearch
