// kgpack round-trip and robustness: a decoded snapshot must be structurally
// identical to the saved dataset, and every corruption mode — wrong magic,
// future version, truncation at any prefix, flipped payload bytes, trailing
// garbage — must come back as a precise Status, never a crash or a silently
// wrong graph.
#include "kg/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "kg/triple_io.h"
#include "util/binary_io.h"

namespace kgsearch {
namespace {

/// A small dataset exercising every section: multiple types, a synonym +
/// abbreviation library, and a 3-D predicate space with non-trivial floats.
struct World {
  std::unique_ptr<KnowledgeGraph> graph;
  std::unique_ptr<PredicateSpace> space;
  TransformationLibrary library;
};

World MakeWorld() {
  World w;
  w.graph = std::make_unique<KnowledgeGraph>();
  NodeId tt = w.graph->AddNode("Audi_TT", "Automobile");
  NodeId golf = w.graph->AddNode("VW_Golf", "Automobile");
  NodeId de = w.graph->AddNode("Germany", "Country");
  NodeId audi = w.graph->AddNode("Audi", "Company");
  w.graph->AddEdge(tt, "assembly", de);
  w.graph->AddEdge(golf, "assembly", de);
  w.graph->AddEdge(audi, "subsidiary", tt);
  w.graph->AddEdge(audi, "locationCountry", de);
  w.graph->Finalize();

  std::vector<FloatVec> vectors;
  std::vector<std::string> names;
  for (PredicateId p = 0; p < w.graph->NumPredicates(); ++p) {
    names.emplace_back(w.graph->PredicateName(p));
    vectors.push_back(FloatVec{0.1f * static_cast<float>(p + 1), 0.77f,
                               -0.33f * static_cast<float>(p)});
  }
  w.space = std::make_unique<PredicateSpace>(std::move(vectors),
                                             std::move(names));

  w.library.AddTypeSynonym("Car", "Automobile");
  w.library.AddTypeSynonym("Motorcar", "Automobile");
  w.library.AddTypeAbbreviation("auto", "Automobile");
  w.library.AddNameAbbreviation("GER", "Germany");
  w.library.AddNameSynonym("Volkswagen Golf", "VW_Golf");
  return w;
}

std::string Encode(const World& w) {
  Result<std::string> bytes = EncodeSnapshot(*w.graph, *w.space, w.library);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.ValueOrDie() : std::string();
}

void ExpectGraphsIdentical(const KnowledgeGraph& a, const KnowledgeGraph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  ASSERT_EQ(a.NumPredicates(), b.NumPredicates());
  ASSERT_EQ(a.NumTypes(), b.NumTypes());
  EXPECT_EQ(a.triples(), b.triples());
  for (NodeId u = 0; u < a.NumNodes(); ++u) {
    EXPECT_EQ(a.NodeName(u), b.NodeName(u));
    EXPECT_EQ(a.NodeType(u), b.NodeType(u));
    auto an = a.Neighbors(u);
    auto bn = b.Neighbors(u);
    ASSERT_EQ(an.size(), bn.size()) << "node " << u;
    for (size_t i = 0; i < an.size(); ++i) {
      EXPECT_EQ(an[i].neighbor, bn[i].neighbor);
      EXPECT_EQ(an[i].predicate, bn[i].predicate);
      EXPECT_EQ(an[i].forward, bn[i].forward);
    }
  }
  for (TypeId t = 0; t < a.NumTypes(); ++t) {
    EXPECT_EQ(a.TypeName(t), b.TypeName(t));
    auto am = a.NodesOfType(t);
    auto bm = b.NodesOfType(t);
    ASSERT_EQ(am.size(), bm.size());
    for (size_t i = 0; i < am.size(); ++i) EXPECT_EQ(am[i], bm[i]);
  }
  for (const Triple& t : a.triples()) {
    EXPECT_TRUE(b.HasTriple(t.head, t.predicate, t.tail));
  }
}

TEST(SnapshotTest, RoundTripIsStructurallyIdentical) {
  World w = MakeWorld();
  Result<DatasetSnapshot> decoded = DecodeSnapshot(Encode(w));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const DatasetSnapshot& snap = decoded.ValueOrDie();

  ASSERT_TRUE(snap.graph->finalized());
  ExpectGraphsIdentical(*w.graph, *snap.graph);

  // Predicate vectors round-trip bit-exactly (the space normalizes at
  // construction; the snapshot must not re-normalize).
  ASSERT_EQ(snap.space->NumPredicates(), w.space->NumPredicates());
  for (PredicateId p = 0; p < w.space->NumPredicates(); ++p) {
    EXPECT_EQ(snap.space->PredicateName(p), w.space->PredicateName(p));
    EXPECT_EQ(snap.space->Vector(p), w.space->Vector(p)) << "predicate " << p;
  }

  // Library resolutions are preserved, including record order and kinds.
  for (const char* query : {"Car", "auto", "Automobile", "unknown"}) {
    auto expect = w.library.ResolveType(query);
    auto got = snap.library.ResolveType(query);
    ASSERT_EQ(expect.size(), got.size()) << query;
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(expect[i].canonical, got[i].canonical);
      EXPECT_EQ(expect[i].kind, got[i].kind);
    }
  }
  EXPECT_EQ(snap.library.NumTypeRecords(), w.library.NumTypeRecords());
  EXPECT_EQ(snap.library.NumNameRecords(), w.library.NumNameRecords());
}

TEST(SnapshotTest, EncodingIsDeterministic) {
  World w1 = MakeWorld();
  World w2 = MakeWorld();
  EXPECT_EQ(Encode(w1), Encode(w2));
}

TEST(SnapshotTest, ZeroNodeGraphRoundTrips) {
  World w;
  w.graph = std::make_unique<KnowledgeGraph>();
  w.graph->Finalize();
  w.space = std::make_unique<PredicateSpace>(std::vector<FloatVec>{},
                                             std::vector<std::string>{});
  Result<DatasetSnapshot> decoded = DecodeSnapshot(Encode(w));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().graph->NumNodes(), 0u);
  EXPECT_EQ(decoded.ValueOrDie().graph->NumEdges(), 0u);
  EXPECT_TRUE(decoded.ValueOrDie().graph->finalized());
}

TEST(SnapshotTest, ZeroEdgeGraphRoundTrips) {
  World w;
  w.graph = std::make_unique<KnowledgeGraph>();
  w.graph->AddNode("lonely", "Thing");
  w.graph->AddNode("also_lonely", "Thing");
  w.graph->Finalize();
  w.space = std::make_unique<PredicateSpace>(std::vector<FloatVec>{},
                                             std::vector<std::string>{});
  Result<DatasetSnapshot> decoded = DecodeSnapshot(Encode(w));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const DatasetSnapshot& snap = decoded.ValueOrDie();
  EXPECT_EQ(snap.graph->NumNodes(), 2u);
  EXPECT_EQ(snap.graph->NumEdges(), 0u);
  EXPECT_EQ(snap.graph->Degree(0), 0u);
}

TEST(SnapshotTest, RejectsUnfinalizedGraph) {
  World w = MakeWorld();
  KnowledgeGraph unfinalized;
  unfinalized.AddNode("a", "T");
  Result<std::string> bytes =
      EncodeSnapshot(unfinalized, *w.space, w.library);
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, RejectsSpaceNotCoveringGraph) {
  World w = MakeWorld();
  PredicateSpace small({FloatVec{1.0f}}, {"assembly"});
  Result<std::string> bytes = EncodeSnapshot(*w.graph, small, w.library);
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, WrongMagicIsAPreciseError) {
  std::string bytes = Encode(MakeWorld());
  bytes[0] = 'X';
  Result<DatasetSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find("magic"), std::string::npos);
}

TEST(SnapshotTest, NonSnapshotInputIsRejected) {
  EXPECT_FALSE(DecodeSnapshot("").ok());
  EXPECT_FALSE(DecodeSnapshot("hello world, definitely not binary").ok());
  EXPECT_FALSE(
      DecodeSnapshot("<http://kg/e/A> <http://kg/p/b> <http://kg/e/C> .")
          .ok());
}

TEST(SnapshotTest, FutureVersionIsRejectedWithTheVersionInTheMessage) {
  std::string bytes = Encode(MakeWorld());
  // Version lives right after the 4 magic bytes.
  const uint32_t future = kKgPackVersion + 7;
  std::memcpy(bytes.data() + 4, &future, sizeof(future));
  Result<DatasetSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
}

TEST(SnapshotTest, TruncationAtEveryPrefixFailsCleanly) {
  const std::string bytes = Encode(MakeWorld());
  ASSERT_GT(bytes.size(), 64u);
  // Header cuts, section-boundary cuts, and a dense sweep near the end.
  std::vector<size_t> cuts = {0, 1, 3, 4, 7, 8, 15, 19, 20, 21,
                              bytes.size() / 4, bytes.size() / 2,
                              bytes.size() - 1};
  for (size_t cut : cuts) {
    Result<DatasetSnapshot> decoded = DecodeSnapshot(bytes.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut << " decoded anyway";
  }
}

TEST(SnapshotTest, TrailingGarbageIsRejected) {
  std::string bytes = Encode(MakeWorld());
  bytes += "extra";
  Result<DatasetSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos);
}

TEST(SnapshotTest, EveryFlippedPayloadByteIsCaughtByTheChecksum) {
  const std::string bytes = Encode(MakeWorld());
  const size_t header = 20;
  // Flip one byte at a spread of payload positions; the checksum must catch
  // each (and the decoder must never crash while trying).
  for (size_t pos = header; pos < bytes.size();
       pos += 1 + (bytes.size() - header) / 97) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5A);
    Result<DatasetSnapshot> decoded = DecodeSnapshot(corrupt);
    ASSERT_FALSE(decoded.ok()) << "flipped byte " << pos << " accepted";
    EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(SnapshotTest, CorruptedChecksumFieldItselfIsCaught) {
  std::string bytes = Encode(MakeWorld());
  bytes[16] = static_cast<char>(bytes[16] ^ 0xFF);
  Result<DatasetSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos);
}

// A space section may not declare more rows than its bytes can hold. The
// probe keeps the graph and library sections and rewrites the space section
// to declare 7,502 rows of which only the first (15,000 floats) is present:
// a 60 KB file whose declared store is ~450 MB. The decoder must refuse it
// by the row count, before sizing the store.
TEST(SnapshotTest, SpaceSectionDeclaringMoreRowsThanItsBytesIsRejected) {
  const std::string valid = Encode(MakeWorld());
  const size_t header = 20;  // magic, version, payload length, CRC
  BinaryReader in(std::string_view(valid).substr(header));
  size_t space_start = 0;
  for (int section = 0; section < 3; ++section) {  // u32 id + u64 length
    space_start = in.position();
    uint32_t id = 0;
    std::string_view body;
    ASSERT_TRUE(in.ReadU32(&id).ok() && in.ReadStringView(&body).ok());
  }
  BinaryWriter space;
  space.WriteU64(7'502);
  space.WriteString("assembly");
  space.WriteVector(std::vector<float>(15'000, 0.5f));
  BinaryWriter payload;
  payload.WriteRaw(valid.data() + header, space_start + sizeof(uint32_t));
  payload.WriteString(space.buffer());
  BinaryWriter file;
  file.WriteRaw(valid.data(), 8);  // magic + version
  file.WriteU64(payload.size());
  file.WriteU32(Crc32(payload.buffer()));
  file.WriteRaw(payload.buffer().data(), payload.size());
  ASSERT_LT(file.size(), 61'000u);

  Result<DatasetSnapshot> decoded = DecodeSnapshot(file.buffer());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find("7502 predicate rows"),
            std::string::npos)
      << decoded.status().ToString();
}

// A structurally plausible FlatParts whose adjacency contradicts its triple
// set — right degrees, sorted lists, in-range ids, but the two forward
// entries swap predicates — must be rejected, not installed: the CSR is
// cross-checked against the triples, not just shape-checked.
TEST(SnapshotTest, RestoreRejectsAdjacencyContradictingTriples) {
  KnowledgeGraph::FlatParts parts;
  parts.names.Intern("a");
  parts.names.Intern("b");
  parts.names.Intern("c");
  parts.types.Intern("Thing");
  parts.predicates.Intern("p");
  parts.predicates.Intern("q");
  parts.node_types = {0, 0, 0};
  parts.triples = {Triple{0, 0, 1}, Triple{0, 1, 2}};  // (a,p,b), (a,q,c)
  parts.adj_offsets = {0, 2, 3, 4};
  parts.adj = {
      AdjEntry{1, 1, true},   // claims (a,q,b) — not a stored triple
      AdjEntry{2, 0, true},   // claims (a,p,c) — not a stored triple
      AdjEntry{0, 0, false},  // (a,p,b) reverse, consistent
      AdjEntry{0, 1, false},  // (a,q,c) reverse, consistent
  };
  parts.type_offsets = {0, 3};
  parts.type_members = {0, 1, 2};

  auto restored = KnowledgeGraph::FromFlatParts(std::move(parts));
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("no matching triple"),
            std::string::npos)
      << restored.status().ToString();
}

// Duplicate adjacency entries are caught by the strict-ordering check even
// when per-node degrees and per-entry triple existence both still hold
// (possible with a self-loop, whose two CSR entries live at the same node).
TEST(SnapshotTest, RestoreRejectsDuplicateAdjacencyEntries) {
  auto make_parts = [](std::vector<AdjEntry> adj) {
    KnowledgeGraph::FlatParts parts;
    parts.names.Intern("a");
    parts.types.Intern("Thing");
    parts.predicates.Intern("p");
    parts.node_types = {0};
    parts.triples = {Triple{0, 0, 0}};  // self-loop (a,p,a)
    parts.adj_offsets = {0, 2};
    parts.adj = std::move(adj);
    parts.type_offsets = {0, 1};
    parts.type_members = {0};
    return parts;
  };

  // Sanity: the correct self-loop CSR (reverse then forward) restores.
  EXPECT_TRUE(KnowledgeGraph::FromFlatParts(
                  make_parts({AdjEntry{0, 0, false}, AdjEntry{0, 0, true}}))
                  .ok());
  // Duplicating the forward entry keeps degree 2 and both entries map to
  // the stored triple; only strict ordering catches it.
  auto restored = KnowledgeGraph::FromFlatParts(
      make_parts({AdjEntry{0, 0, true}, AdjEntry{0, 0, true}}));
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("strictly sorted"),
            std::string::npos)
      << restored.status().ToString();
}

// A repeated triple is rejected even when degrees, sortedness and every
// per-triple entry lookup check out: two copies of (a,p,b) and the entries
// of (a,q,b) give the right degrees, yet no triple is (a,q,b), and the
// second (a,p,b) finds its entries already claimed by the first.
TEST(SnapshotTest, RestoreRejectsDuplicateTriples) {
  KnowledgeGraph::FlatParts parts;
  parts.names.Intern("a");
  parts.names.Intern("b");
  parts.types.Intern("Thing");
  parts.predicates.Intern("p");
  parts.predicates.Intern("q");
  parts.node_types = {0, 0};
  parts.triples = {Triple{0, 0, 1}, Triple{0, 0, 1}};  // (a,p,b) twice
  parts.adj_offsets = {0, 2, 4};
  parts.adj = {
      AdjEntry{1, 0, true},   // (a,p,b) forward
      AdjEntry{1, 1, true},   // (a,q,b) forward
      AdjEntry{0, 0, false},  // (a,p,b) reverse
      AdjEntry{0, 1, false},  // (a,q,b) reverse
  };
  parts.type_offsets = {0, 2};
  parts.type_members = {0, 1};

  auto restored = KnowledgeGraph::FromFlatParts(std::move(parts));
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  EXPECT_NE(restored.status().message().find("duplicate triple"),
            std::string::npos)
      << restored.status().ToString();
}

TEST(SnapshotTest, SaveAndLoadRoundTripThroughDisk) {
  World w = MakeWorld();
  const std::string path =
      ::testing::TempDir() + "/kgpack_snapshot_test.kgpack";
  ASSERT_TRUE(SaveSnapshot(path, *w.graph, *w.space, w.library).ok());
  Result<DatasetSnapshot> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectGraphsIdentical(*w.graph, *loaded.ValueOrDie().graph);
  std::remove(path.c_str());
}

// Saving streams into the file, so validation must finish before the file
// is opened (and truncated): an invalid save leaves an existing snapshot
// byte-identical.
TEST(SnapshotTest, InvalidSaveLeavesExistingFileUntouched) {
  World w = MakeWorld();
  const std::string path =
      ::testing::TempDir() + "/kgpack_invalid_save_test.kgpack";
  ASSERT_TRUE(SaveSnapshot(path, *w.graph, *w.space, w.library).ok());
  Result<std::string> before = ReadFileToString(path);
  ASSERT_TRUE(before.ok());

  KnowledgeGraph unfinalized;
  unfinalized.AddNode("a", "T");
  EXPECT_EQ(SaveSnapshot(path, unfinalized, *w.space, w.library).code(),
            StatusCode::kInvalidArgument);
  PredicateSpace small({FloatVec{1.0f}}, {"assembly"});
  EXPECT_EQ(SaveSnapshot(path, *w.graph, small, w.library).code(),
            StatusCode::kInvalidArgument);

  Result<std::string> after = ReadFileToString(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie(), before.ValueOrDie());
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadFromMissingFileIsAnIOError) {
  Result<DatasetSnapshot> loaded =
      LoadSnapshot("/nonexistent/dir/missing.kgpack");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(SnapshotTest, MagicSniffing) {
  EXPECT_TRUE(LooksLikeKgPack(Encode(MakeWorld())));
  EXPECT_FALSE(LooksLikeKgPack(""));
  EXPECT_FALSE(LooksLikeKgPack("KGP"));
  EXPECT_FALSE(LooksLikeKgPack("name\ta\tType\n"));
  EXPECT_TRUE(LooksLikeKgPack("KGPK..garbage.."));  // sniff only the magic
}

}  // namespace
}  // namespace kgsearch
