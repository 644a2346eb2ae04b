// Cold-start tax: parsing N-Triples + training TransE vs restoring the same
// dataset from a kgpack snapshot. The paper's serving model assumes a
// resident knowledge graph; this bench quantifies what a restart costs each
// way and gates the snapshot path at >= 10x faster (it is typically
// 100-1000x: a handful of bulk reads vs epochs of SGD). A correctness gate
// first proves the snapshot-loaded session answers the standard workload
// bit-identically to the parsed-and-trained one; results land in
// BENCH_snapshot_load.json.
#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "eval/harness.h"
#include "gen/synthetic_kg.h"
#include "kg/triple_io.h"

namespace kgsearch {
namespace {

constexpr size_t kLoadPasses = 9;
constexpr double kMinSpeedup = 10.0;  // the acceptance gate

int Run() {
  // Per-process names, so concurrent runs never share or delete each
  // other's files.
  const std::string prefix =
      "/tmp/kgsearch_bench_snapshot_" + std::to_string(::getpid());
  const std::string graph_path = prefix + "_graph.nt";
  const std::string library_path = prefix + "_lib.tsv";
  const std::string pack_path = prefix + ".kgpack";

  auto generated = GenerateDataset(DbpediaLikeSpec(0.4, 42));
  if (!generated.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  GeneratedDataset& ds = *generated.ValueOrDie();
  const std::vector<QueryWithGold> workload = MakeStandardWorkload(ds, 8);
  if (workload.empty()) {
    std::fprintf(stderr, "empty workload\n");
    return 1;
  }
  if (!WriteStringToFile(graph_path, WriteNTriples(*ds.graph)).ok() ||
      !WriteStringToFile(library_path, ds.library.Serialize()).ok()) {
    std::fprintf(stderr, "cannot write bench inputs\n");
    return 1;
  }

  // --- the expensive path: parse text, train TransE (serving defaults) ---
  DatasetLoadOptions fresh_load;
  fresh_load.graph_path = graph_path;
  fresh_load.library_path = library_path;
  fresh_load.train_transe = true;

  KgSession fresh_session;
  StopWatch parse_train_watch;
  Status fresh = fresh_session.LoadDataset("kg", fresh_load);
  const double parse_train_ms = parse_train_watch.ElapsedMillis();
  if (!fresh.ok()) {
    std::fprintf(stderr, "parse+train load: %s\n", fresh.ToString().c_str());
    return 1;
  }

  StopWatch save_watch;
  Status saved = fresh_session.SaveDataset("kg", pack_path);
  const double save_ms = save_watch.ElapsedMillis();
  if (!saved.ok()) {
    std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    return 1;
  }
  Result<std::string> pack_bytes = ReadFileToString(pack_path);
  if (!pack_bytes.ok()) return 1;
  const size_t pack_size = pack_bytes.ValueOrDie().size();

  // --- the fast path: restore the snapshot, min over several cold loads ---
  DatasetLoadOptions snap_load;
  snap_load.graph_path = pack_path;

  double snapshot_load_min_ms = 0.0;
  KgSession snap_session;  // the last pass's session serves the gate below
  for (size_t pass = 0; pass < kLoadPasses; ++pass) {
    KgSession session;
    StopWatch watch;
    Status loaded = session.LoadDataset("kg", snap_load);
    const double ms = watch.ElapsedMillis();
    if (!loaded.ok()) {
      std::fprintf(stderr, "snapshot load: %s\n", loaded.ToString().c_str());
      return 1;
    }
    if (pass == 0 || ms < snapshot_load_min_ms) snapshot_load_min_ms = ms;
    if (pass + 1 == kLoadPasses) {
      Status again = snap_session.LoadDataset("kg", snap_load);
      if (!again.ok()) return 1;
    }
  }

  // --- correctness gate: identical answers over the standard workload ---
  size_t gated_queries = 0;
  for (const QueryWithGold& q : workload) {
    QueryRequest request;
    request.dataset = "kg";
    request.query_graph = q.query;
    request.options.k = 20;
    auto a = fresh_session.Query(request);
    auto b = snap_session.Query(request);
    if (a.ok() != b.ok()) {
      std::fprintf(stderr, "gate: ok mismatch on %s\n",
                   q.description.c_str());
      return 1;
    }
    if (!a.ok()) continue;
    if (a.ValueOrDie().answers != b.ValueOrDie().answers) {
      std::fprintf(stderr, "gate: answers differ on %s\n",
                   q.description.c_str());
      return 1;
    }
    ++gated_queries;
  }
  if (gated_queries == 0) {
    std::fprintf(stderr, "gate: no successful queries\n");
    return 1;
  }

  const double speedup = parse_train_ms / snapshot_load_min_ms;
  std::vector<DatasetInfo> info = snap_session.ListDatasets();

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_snapshot_load\",\n");
  std::printf("  \"nodes\": %zu,\n", info[0].nodes);
  std::printf("  \"edges\": %zu,\n", info[0].edges);
  std::printf("  \"predicates\": %zu,\n", info[0].predicates);
  std::printf("  \"workload_queries_gated\": %zu,\n", gated_queries);
  std::printf("  \"correctness_gate\": \"snapshot-loaded answers identical "
              "to parse+train\",\n");
  std::printf("  \"parse_train_ms\": %.1f,\n", parse_train_ms);
  std::printf("  \"snapshot_save_ms\": %.1f,\n", save_ms);
  std::printf("  \"snapshot_bytes\": %zu,\n", pack_size);
  std::printf("  \"snapshot_load_passes\": %zu,\n", kLoadPasses);
  std::printf("  \"snapshot_load_min_ms\": %.2f,\n", snapshot_load_min_ms);
  std::printf("  \"speedup\": %.1f,\n", speedup);
  std::printf("  \"gate_min_speedup\": %.1f,\n", kMinSpeedup);
  std::printf("  \"gate_passed\": %s\n",
              speedup >= kMinSpeedup ? "true" : "false");
  std::printf("}\n");

  std::remove(graph_path.c_str());
  std::remove(library_path.c_str());
  std::remove(pack_path.c_str());
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr, "FAIL: snapshot load only %.1fx faster than "
                         "parse+train (gate %.1fx)\n",
                 speedup, kMinSpeedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace kgsearch

int main() { return kgsearch::Run(); }
