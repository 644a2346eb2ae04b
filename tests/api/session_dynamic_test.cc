// Dynamic-graph facade tests: live ingest through the session (epoch
// visibility, validation, wire form), atomic blue-green replacement with
// drain (the name-collision bugfix), compaction folding, writes racing a
// compaction, and the replace_existing load path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "gen/scale_kg.h"
#include "testing/car_fixture.h"
#include "util/clock.h"
#include "util/json.h"

namespace kgsearch {
namespace {

using testing_fixture::CarParts;
using testing_fixture::CarRequest;
using testing_fixture::MakeCarParts;
using testing_fixture::RegisterCars;

std::vector<std::string> AnswerNames(const QueryResponse& response) {
  std::vector<std::string> out;
  for (const AnswerDto& a : response.answers) out.push_back(a.name);
  return out;
}

IngestRequest AddCar(const std::string& name) {
  IngestRequest request;
  request.dataset = "cars";
  IngestOpDto op;
  op.head = name;
  op.predicate = "assembly";
  op.tail = "Germany";
  op.head_type = "Automobile";
  request.ops.push_back(std::move(op));
  return request;
}

/// Car parts whose graph also holds `marker` (an Automobile assembled in
/// Germany), so a test can tell which replacement a generation came from.
CarParts MarkedCarParts(const std::string& marker) {
  CarParts parts = MakeCarParts();
  std::unique_ptr<KnowledgeGraph> marked;
  {
    DeltaOverlay overlay(parts.graph.get());
    MutationBatch batch;
    batch.ops.push_back(
        Mutation::Add(marker, "assembly", "Germany", "Automobile"));
    EXPECT_TRUE(overlay.Commit(batch).ok());
    marked = FoldDelta(*parts.graph, overlay.Snapshot().get()).ValueOrDie();
  }
  parts.graph = std::move(marked);
  return parts;
}

/// Jumps 1 s on every read, so a wall-clock budget runs out at once.
class JumpingClock : public Clock {
 public:
  int64_t NowMicros() const override { return now_.fetch_add(1'000'000); }

 private:
  mutable std::atomic<int64_t> now_{0};
};

bool Contains(const std::vector<std::string>& names,
              const std::string& name) {
  for (const std::string& n : names) {
    if (n == name) return true;
  }
  return false;
}

TEST(SessionIngestTest, CommittedBatchBecomesVisibleToNewQueries) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  const QueryRequest query = CarRequest("?Car product GER");

  auto before = session.Query(query);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(Contains(AnswerNames(before.ValueOrDie()), "VW_Golf"));
  ASSERT_EQ(session.DatasetEpoch("cars").ValueOrDie(), 0u);

  Result<IngestResponse> ingested = session.Ingest(AddCar("VW_Golf"));
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_EQ(ingested.ValueOrDie().epoch, 1u);
  EXPECT_EQ(ingested.ValueOrDie().ops_applied, 1u);
  EXPECT_EQ(session.DatasetEpoch("cars").ValueOrDie(), 1u);

  auto after = session.Query(query);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(Contains(AnswerNames(after.ValueOrDie()), "VW_Golf"));
}

TEST(SessionIngestTest, RetractHidesABaseTriple) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  const QueryRequest query = CarRequest("?Car product GER");
  auto before = session.Query(query);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(Contains(AnswerNames(before.ValueOrDie()), "BMW_320"));

  IngestRequest retract;
  retract.dataset = "cars";
  IngestOpDto op;
  op.retract = true;
  op.head = "BMW_320";
  op.predicate = "assembly";
  op.tail = "Germany";
  retract.ops.push_back(std::move(op));
  ASSERT_TRUE(session.Ingest(retract).ok());

  auto after = session.Query(query);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(Contains(AnswerNames(after.ValueOrDie()), "BMW_320"));
}

TEST(SessionIngestTest, ValidationErrors) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());

  IngestRequest unknown_dataset = AddCar("VW_Golf");
  unknown_dataset.dataset = "nope";
  EXPECT_EQ(session.Ingest(unknown_dataset).status().code(),
            StatusCode::kNotFound);

  IngestRequest no_ops;
  no_ops.dataset = "cars";
  EXPECT_EQ(session.Ingest(no_ops).status().code(),
            StatusCode::kInvalidArgument);

  // Adds must use predicates the predicate space has embedding rows for.
  IngestRequest new_predicate = AddCar("VW_Golf");
  new_predicate.ops[0].predicate = "invented_just_now";
  EXPECT_EQ(session.Ingest(new_predicate).status().code(),
            StatusCode::kInvalidArgument);

  // A failed batch publishes nothing.
  EXPECT_EQ(session.DatasetEpoch("cars").ValueOrDie(), 0u);
}

// The in-process path applies the wire decoder's op rule: an op with an
// empty head, predicate or tail is rejected before anything commits.
TEST(SessionIngestTest, EmptyOpFieldsAreRejectedInProcess) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  const size_t nodes_before = session.ListDatasets()[0].nodes;

  IngestRequest empty_head = AddCar("");
  EXPECT_EQ(session.Ingest(empty_head).status().code(),
            StatusCode::kInvalidArgument);
  IngestRequest empty_tail = AddCar("VW_Golf");
  empty_tail.ops[0].retract = true;
  empty_tail.ops[0].tail = "";
  EXPECT_EQ(session.Ingest(empty_tail).status().code(),
            StatusCode::kInvalidArgument);
  // A bad op anywhere in the batch rejects the whole batch.
  IngestRequest mixed = AddCar("VW_Golf");
  mixed.ops.push_back(AddCar("").ops[0]);
  EXPECT_EQ(session.Ingest(mixed).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(session.DatasetEpoch("cars").ValueOrDie(), 0u);
  EXPECT_EQ(session.ListDatasets()[0].nodes, nodes_before);
}

TEST(SessionIngestTest, ListDatasetsReportsLiveViewCountsAndEpoch) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  const DatasetInfo before = session.ListDatasets()[0];

  ASSERT_TRUE(session.Ingest(AddCar("VW_Golf")).ok());
  const DatasetInfo after = session.ListDatasets()[0];
  EXPECT_EQ(after.nodes, before.nodes + 1);
  EXPECT_EQ(after.edges, before.edges + 1);
  EXPECT_EQ(after.predicates, before.predicates);
  EXPECT_EQ(after.epoch, 1u);
}

TEST(SessionIngestTest, IngestJsonRoundTrip) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());

  const std::string ok = session.IngestJson(
      R"({"v":1,"ingest":{"dataset":"cars","ops":[)"
      R"({"op":"add","head":"VW_Golf","predicate":"assembly",)"
      R"("tail":"Germany","head_type":"Automobile"}]}})");
  Result<IngestResponse> decoded = DecodeIngestResponseJson(ok);
  ASSERT_TRUE(decoded.ok()) << ok;
  EXPECT_EQ(decoded.ValueOrDie().epoch, 1u);
  EXPECT_EQ(decoded.ValueOrDie().ops_applied, 1u);

  const std::string bad = session.IngestJson("{\"v\":1}");
  EXPECT_NE(bad.find("\"error\""), std::string::npos);
}

TEST(SessionReplaceTest, RegisterCollisionStaysAlreadyExists) {
  // Regression guard for the name-collision bugfix: plain RegisterDataset
  // must still refuse, only the explicit replace verbs swap.
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  EXPECT_EQ(RegisterCars(&session).code(), StatusCode::kAlreadyExists);
}

TEST(SessionReplaceTest, ReplaceSwapsAtomicallyAndResetsEpoch) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  ASSERT_TRUE(session.Ingest(AddCar("VW_Golf")).ok());
  ASSERT_EQ(session.DatasetEpoch("cars").ValueOrDie(), 1u);
  const KnowledgeGraph* old_graph = session.graph("cars");

  CarParts parts = MakeCarParts();
  ASSERT_TRUE(session
                  .ReplaceDataset("cars", std::move(parts.graph),
                                  std::move(parts.space),
                                  std::move(parts.library))
                  .ok());
  // Fresh generation: new graph pointer, pristine overlay — the ingested
  // VW_Golf lived in the replaced generation and is gone.
  EXPECT_NE(session.graph("cars"), old_graph);
  EXPECT_EQ(session.DatasetEpoch("cars").ValueOrDie(), 0u);
  auto after = session.Query(CarRequest("?Car product GER"));
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(Contains(AnswerNames(after.ValueOrDie()), "VW_Golf"));
}

TEST(SessionReplaceTest, ReplaceUnderLiveQueriesNeverFailsOne) {
  // The drain contract: queries in flight during a swap finish on the old
  // generation; queries after it run on the new one. No query ever fails.
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      const QueryRequest query = CarRequest("?Car product GER");
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = session.Query(query);
        executed.fetch_add(1, std::memory_order_relaxed);
        if (!result.ok() || result.ValueOrDie().answers.empty()) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Keep swapping until the readers have demonstrably executed queries
  // across several generations (bounded so a wedged reader can't hang CI).
  for (int swap = 0; swap < 2000 && executed.load() < 200; ++swap) {
    CarParts parts = MakeCarParts();
    ASSERT_TRUE(session
                    .ReplaceDataset("cars", std::move(parts.graph),
                                    std::move(parts.space),
                                    std::move(parts.library))
                    .ok());
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(executed.load(), 0u);
}

TEST(SessionReplaceTest, StatsGenerationChangesAcrossSwap) {
  // The wire stats carry a process-unique generation so rate trackers
  // (server/stats.h) can detect a swapped-out service instead of diffing
  // counters across generations.
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  const uint64_t gen1 = session.Stats("cars").ValueOrDie().generation;
  EXPECT_NE(gen1, 0u);

  CarParts parts = MakeCarParts();
  ASSERT_TRUE(session
                  .ReplaceDataset("cars", std::move(parts.graph),
                                  std::move(parts.space),
                                  std::move(parts.library))
                  .ok());
  const uint64_t gen2 = session.Stats("cars").ValueOrDie().generation;
  EXPECT_NE(gen2, 0u);
  EXPECT_NE(gen2, gen1);
}

TEST(SessionCompactTest, CompactionFoldsDeltaAndPreservesAnswers) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  ASSERT_TRUE(session.Ingest(AddCar("VW_Golf")).ok());
  const QueryRequest query = CarRequest("?Car product GER");
  auto before = session.Query(query);
  ASSERT_TRUE(before.ok());
  const KnowledgeGraph* old_graph = session.graph("cars");

  ASSERT_TRUE(session.CompactDataset("cars").ok());
  // Fresh base graph at epoch 0, delta folded in, answers bit-identical.
  EXPECT_NE(session.graph("cars"), old_graph);
  EXPECT_EQ(session.DatasetEpoch("cars").ValueOrDie(), 0u);
  EXPECT_EQ(session.graph("cars")->NumEdges(), 6u);  // 5 base + 1 ingested
  auto after = session.Query(query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().answers, before.ValueOrDie().answers);

  // Ingest keeps working against the compacted generation.
  ASSERT_TRUE(session.Ingest(AddCar("VW_Polo")).ok());
  EXPECT_EQ(session.DatasetEpoch("cars").ValueOrDie(), 1u);
}

TEST(SessionCompactTest, CompactionAtEpochZeroIsANoop) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  const KnowledgeGraph* old_graph = session.graph("cars");
  ASSERT_TRUE(session.CompactDataset("cars").ok());
  EXPECT_EQ(session.graph("cars"), old_graph);  // no swap happened
  EXPECT_TRUE(session.Ingest(AddCar("VW_Golf")).ok());  // not left retired
  EXPECT_EQ(session.CompactDataset("nope").code(), StatusCode::kNotFound);
}

TEST(SessionCompactTest, IngestDuringCompactionWaitsForTheSwap) {
  // One thread ingests back to back while the test compacts. A batch that
  // arrives mid-fold waits for the swap under the dataset's writer lock
  // and lands on the new generation: it never fails, however long the
  // fold takes by the session's clock, and none is lost.
  JumpingClock clock;
  KgSession session(KgSessionOptions{}, &clock);
  Result<DatasetSnapshot> built = BuildScaleKgInMemory(ScaleSpecFor(10'000));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  DatasetSnapshot& parts = built.ValueOrDie();
  const std::string predicate(parts.graph->PredicateName(0));
  const std::string tail(parts.graph->NodeName(0));
  const size_t base_edges = parts.graph->NumEdges();
  ASSERT_TRUE(session
                  .RegisterDataset("scale", std::move(parts.graph),
                                   std::move(parts.space),
                                   std::move(parts.library))
                  .ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acked{0};
  std::atomic<uint64_t> failed{0};
  std::string first_failure;  // written by the ingest thread only
  std::thread ingester([&] {
    for (uint64_t b = 0; !stop.load(); ++b) {
      IngestRequest request;
      request.dataset = "scale";
      for (int o = 0; o < 4; ++o) {
        IngestOpDto op;
        op.head = "fresh_" + std::to_string(b) + "_" + std::to_string(o);
        op.predicate = predicate;
        op.tail = tail;
        request.ops.push_back(std::move(op));
      }
      Result<IngestResponse> response = session.Ingest(request);
      if (response.ok()) {
        acked.fetch_add(1);
      } else if (failed.fetch_add(1) == 0) {
        first_failure = response.status().ToString();
      }
    }
  });
  for (int c = 0; c < 5; ++c) {
    // Wait for a new batch, so every compaction has a delta to fold.
    const uint64_t seen = acked.load();
    while (acked.load() == seen && failed.load() == 0) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(session.CompactDataset("scale").ok());
  }
  stop = true;
  ingester.join();
  ASSERT_TRUE(session.CompactDataset("scale").ok());
  EXPECT_EQ(failed.load(), 0u) << first_failure;
  EXPECT_EQ(session.graph("scale")->NumEdges(),
            base_edges + 4 * acked.load());
}

TEST(SessionCompactTest, ReplaceRacingCompactionBothSucceed) {
  // Ingest-then-compact loops race replacements. Whichever writer runs
  // second sees the other's result: every call returns OK, and the graph
  // left registered comes from the last replacement, never from a fold of
  // a generation that was replaced.
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> failed{0};
  std::thread compactor([&] {
    for (int i = 0; !stop.load(); ++i) {
      if (!session.Ingest(AddCar("Ingested_" + std::to_string(i))).ok() ||
          !session.CompactDataset("cars").ok()) {
        failed.fetch_add(1);
      }
      compactions.fetch_add(1);
    }
  });
  constexpr int kReplacements = 20;
  for (int r = 0; r < kReplacements; ++r) {
    const uint64_t seen = compactions.load();
    while (compactions.load() == seen) std::this_thread::yield();
    CarParts parts = MarkedCarParts("Marker_" + std::to_string(r));
    EXPECT_TRUE(session
                    .ReplaceDataset("cars", std::move(parts.graph),
                                    std::move(parts.space),
                                    std::move(parts.library))
                    .ok());
  }
  stop = true;
  compactor.join();
  EXPECT_EQ(failed.load(), 0u);
  const KnowledgeGraph* graph = session.graph("cars");
  EXPECT_NE(graph->FindNode("Marker_" + std::to_string(kReplacements - 1)),
            kInvalidNode);
  EXPECT_EQ(graph->FindNode("Marker_" + std::to_string(kReplacements - 2)),
            kInvalidNode);
}

TEST(SessionLoadTest, ReplaceExistingControlsTheCollisionOutcome) {
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  const std::string path =
      ::testing::TempDir() + "/session_dynamic_cars.kgpack";
  ASSERT_TRUE(session.SaveDataset("cars", path).ok());

  DatasetLoadOptions options;
  options.graph_path = path;
  EXPECT_EQ(session.LoadDataset("cars", options).code(),
            StatusCode::kAlreadyExists);
  options.replace_existing = true;
  EXPECT_TRUE(session.LoadDataset("cars", options).ok());
  auto answer = session.Query(CarRequest("?Car product GER"));
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer.ValueOrDie().answers.empty());
  std::remove(path.c_str());
}

TEST(SessionLoadTest, SaveDatasetSnapshotsTheLiveView) {
  // Saving after ingest folds base+delta, so a reload serves the merged
  // state (at epoch 0) rather than silently dropping the delta.
  KgSession session;
  ASSERT_TRUE(RegisterCars(&session).ok());
  ASSERT_TRUE(session.Ingest(AddCar("VW_Golf")).ok());
  const std::string path =
      ::testing::TempDir() + "/session_dynamic_live.kgpack";
  ASSERT_TRUE(session.SaveDataset("cars", path).ok());

  KgSession fresh;
  DatasetLoadOptions options;
  options.graph_path = path;
  ASSERT_TRUE(fresh.LoadDataset("cars", options).ok());
  EXPECT_EQ(fresh.DatasetEpoch("cars").ValueOrDie(), 0u);
  auto answer = fresh.Query(CarRequest("?Car product GER"));
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(Contains(AnswerNames(answer.ValueOrDie()), "VW_Golf"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kgsearch
