// Snapshot parity: a session restored from a kgpack snapshot must answer
// queries bit-identically — same answer ids, scores, order, and engine
// counters — to the session that parsed the N-Triples text and trained
// TransE from scratch, for SGQ and TBQ, with cold and warm caches. This is
// the contract that makes snapshots a deployment unit: restarting from a
// snapshot can never change what the service returns.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "gen/car_domain.h"
#include "kg/snapshot.h"
#include "kg/triple_io.h"

namespace kgsearch {
namespace {

// A scratch path private to this process. ctest runs every TEST of this
// suite as its own process, each with its own SetUpTestSuite, so fixed
// names would let parallel siblings delete each other's files mid-load.
std::string ProcessTempPath(const std::string& name) {
  return ::testing::TempDir() + "/snapshot_diff_" +
         std::to_string(::getpid()) + "_" + name;
}

class SnapshotDifferentialTest : public ::testing::Test {
 protected:
  // Builds the fixture once: car-domain graph + library written to text
  // files, one session that parses + trains ("fresh"), a kgpack saved from
  // it, and one session restored from that snapshot ("snap").
  static void SetUpTestSuite() {
    graph_path_ = ProcessTempPath("graph.nt");
    library_path_ = ProcessTempPath("library.tsv");
    pack_path_ = ProcessTempPath("pack.kgpack");

    auto car = MakeCarDomainDataset(120, 117);
    ASSERT_TRUE(car.ok()) << car.status().ToString();
    ASSERT_TRUE(WriteStringToFile(graph_path_,
                                  WriteNTriples(*car.ValueOrDie()->graph))
                    .ok());
    ASSERT_TRUE(WriteStringToFile(library_path_,
                                  car.ValueOrDie()->library.Serialize())
                    .ok());

    fresh_ = new KgSession();
    DatasetLoadOptions load;
    load.graph_path = graph_path_;
    load.library_path = library_path_;
    load.train_transe = true;
    load.transe_config = {.dim = 24, .epochs = 15, .seed = 7};
    ASSERT_TRUE(fresh_->LoadDataset("car", load).ok());
    ASSERT_TRUE(fresh_->SaveDataset("car", pack_path_).ok());

    snap_ = new KgSession();
    DatasetLoadOptions snap_load;
    snap_load.graph_path = pack_path_;
    Status loaded = snap_->LoadDataset("car", snap_load);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  }

  static void TearDownTestSuite() {
    delete snap_;
    snap_ = nullptr;
    delete fresh_;
    fresh_ = nullptr;
    std::remove(graph_path_.c_str());
    std::remove(library_path_.c_str());
    std::remove(pack_path_.c_str());
  }

  static std::vector<QueryRequest> Workload(QueryMode mode) {
    std::vector<QueryRequest> requests;
    for (int variant = 1; variant <= 4; ++variant) {
      QueryRequest request;
      request.dataset = "car";
      request.mode = mode;
      request.query_graph = MakeQ117Variant(variant);
      request.options.k = 15;
      if (mode == QueryMode::kTbq) {
        request.options.time_bound_micros = 30'000'000;  // generous: exact
      }
      requests.push_back(std::move(request));
    }
    // And one text-form request, so the parse path is covered too.
    QueryRequest text_request;
    text_request.dataset = "car";
    text_request.mode = mode;
    text_request.query_text = "?Car assembly GER";
    text_request.options.k = 15;
    if (mode == QueryMode::kTbq) {
      text_request.options.time_bound_micros = 30'000'000;
    }
    requests.push_back(std::move(text_request));
    return requests;
  }

  static void ExpectIdenticalResponses(QueryMode mode, const char* phase) {
    for (const QueryRequest& request : Workload(mode)) {
      auto fresh = fresh_->Query(request);
      auto snap = snap_->Query(request);
      ASSERT_EQ(fresh.ok(), snap.ok()) << phase;
      if (!fresh.ok()) continue;
      const QueryResponse& f = fresh.ValueOrDie();
      const QueryResponse& s = snap.ValueOrDie();
      // Bit-identical answers: ids, names, types, and exact double scores.
      EXPECT_EQ(f.answers, s.answers) << phase;
      // Same engine work, not merely the same output.
      EXPECT_EQ(f.stats, s.stats) << phase;
      EXPECT_EQ(f.stopped_by_time, s.stopped_by_time) << phase;
    }
  }

  static KgSession* fresh_;
  static KgSession* snap_;
  static std::string graph_path_;
  static std::string library_path_;
  static std::string pack_path_;
};

KgSession* SnapshotDifferentialTest::fresh_ = nullptr;
KgSession* SnapshotDifferentialTest::snap_ = nullptr;
std::string SnapshotDifferentialTest::graph_path_;
std::string SnapshotDifferentialTest::library_path_;
std::string SnapshotDifferentialTest::pack_path_;

TEST_F(SnapshotDifferentialTest, DatasetsAreStructurallyIdentical) {
  const KnowledgeGraph* fg = fresh_->graph("car");
  const KnowledgeGraph* sg = snap_->graph("car");
  ASSERT_NE(fg, nullptr);
  ASSERT_NE(sg, nullptr);
  EXPECT_EQ(fg->NumNodes(), sg->NumNodes());
  EXPECT_EQ(fg->NumEdges(), sg->NumEdges());
  EXPECT_EQ(fg->triples(), sg->triples());

  const PredicateSpace* fs = fresh_->space("car");
  const PredicateSpace* ss = snap_->space("car");
  ASSERT_EQ(fs->NumPredicates(), ss->NumPredicates());
  for (PredicateId p = 0; p < fs->NumPredicates(); ++p) {
    // The trained embedding round-trips bit-exactly — float equality, not
    // approximate equality.
    EXPECT_EQ(fs->Vector(p), ss->Vector(p)) << "predicate " << p;
  }
}

// SGQ cold (first run, caches empty) then warm (second run, decomposition +
// matcher caches populated): identical both times.
TEST_F(SnapshotDifferentialTest, SgqColdAndWarmAreBitIdentical) {
  ExpectIdenticalResponses(QueryMode::kSgq, "SGQ cold");
  ExpectIdenticalResponses(QueryMode::kSgq, "SGQ warm");
}

// TBQ with a generous bound is exact and deterministic; snapshot-served
// answers must match the freshly-trained session's, cold and warm.
TEST_F(SnapshotDifferentialTest, TbqColdAndWarmAreBitIdentical) {
  ExpectIdenticalResponses(QueryMode::kTbq, "TBQ cold");
  ExpectIdenticalResponses(QueryMode::kTbq, "TBQ warm");
}

// The JSON wire path goes through the same machinery: identical documents.
TEST_F(SnapshotDifferentialTest, JsonResponsesAgree) {
  QueryRequest request;
  request.dataset = "car";
  request.query_graph = MakeQ117Variant(4);
  request.options.k = 10;
  const std::string request_json = EncodeQueryRequestJson(request);
  const std::string fresh_json = fresh_->QueryJson(request_json);
  const std::string snap_json = snap_->QueryJson(request_json);
  // Timings differ run to run; compare the decoded answers instead of text.
  auto fresh_response = DecodeQueryResponseJson(fresh_json);
  auto snap_response = DecodeQueryResponseJson(snap_json);
  ASSERT_TRUE(fresh_response.ok()) << fresh_json;
  ASSERT_TRUE(snap_response.ok()) << snap_json;
  EXPECT_EQ(fresh_response.ValueOrDie().answers,
            snap_response.ValueOrDie().answers);
  EXPECT_EQ(fresh_response.ValueOrDie().stats,
            snap_response.ValueOrDie().stats);
}

// A second-generation snapshot (save the snapshot-loaded dataset, load it
// again) stays bit-identical: snapshots are a fixed point, not a lossy copy.
TEST_F(SnapshotDifferentialTest, ResnapshottingIsAFixedPoint) {
  const std::string path2 = ProcessTempPath("gen2.kgpack");
  ASSERT_TRUE(snap_->SaveDataset("car", path2).ok());

  Result<std::string> gen1 = ReadFileToString(pack_path_);
  Result<std::string> gen2 = ReadFileToString(path2);
  ASSERT_TRUE(gen1.ok());
  ASSERT_TRUE(gen2.ok());
  EXPECT_EQ(gen1.ValueOrDie(), gen2.ValueOrDie());
  std::remove(path2.c_str());
}

}  // namespace
}  // namespace kgsearch
