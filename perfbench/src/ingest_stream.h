// A seeded live-ingest stream over a scale_kg graph, with the exact model of
// what committing it does to the graph's node and edge counts.
//
// Every add joins an ingest-born node to a node of the base graph (its
// community's hub or one of its members) over one of the domain's existing
// predicates, so no add can collide with a base triple and the model stays
// exact without reading the graph. Ingest-born nodes are typed as their
// community's member type, so they join target-type candidate sets and the
// adjacency of the base nodes they attach to. Retracts remove live adds of
// earlier batches. Batch contents are a pure function of (spec, seed), so
// every run commits the same batches.
#ifndef PERFBENCH_INGEST_STREAM_H_
#define PERFBENCH_INGEST_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/protocol.h"
#include "gen/scale_kg.h"
#include "kg/delta_overlay.h"

namespace perfbench {

/// Ops per batch; kRetractShare of them retract a live add of an earlier
/// batch, and kNewNodeShare of the adds create a fresh ingest-born node.
inline constexpr size_t kOpsPerBatch = 64;
inline constexpr double kRetractShare = 0.2;
inline constexpr double kNewNodeShare = 0.25;

struct IngestStream {
  std::vector<kgsearch::IngestRequest> batches;
  /// Model after the first b batches committed (b = 0 .. batches.size()).
  std::vector<uint64_t> nodes_after;
  std::vector<uint64_t> edges_after;
  /// Delta triples (live ingest-born triples; the stream never retracts a
  /// base triple) after the first b batches.
  std::vector<uint64_t> delta_after;
};

/// `base_nodes` and `base_edges` are the counts of the graph the stream
/// is committed against (the generated graph, or a compacted one).
/// Ingest-born node names carry the stream seed, so streams with different
/// seeds never share a node.
IngestStream MakeIngestStream(const kgsearch::ScaleKgSpec& spec,
                              uint64_t base_nodes, uint64_t base_edges,
                              const std::string& dataset, size_t num_batches,
                              uint64_t seed);

/// The same batch as the overlay's own mutation type, for mirroring a wire
/// batch into a DeltaOverlay the benchmark owns.
kgsearch::MutationBatch ToMutationBatch(const kgsearch::IngestRequest& batch);

}  // namespace perfbench

#endif  // PERFBENCH_INGEST_STREAM_H_
