// Million-scale streaming synthetic knowledge-graph generator.
//
// The laptop-scale generator (gen/synthetic_kg.h) materializes a full
// KnowledgeGraph before snapshotting it — fine at 10^4 nodes, hopeless at
// 10^6+. This generator is built around one idea: the whole graph is a
// deterministic function of (spec, node id). Each node's name, type, and
// out-edges are recomputed on demand from a FastRng seeded with
// MixSeed(spec.seed, node id), so the edge stream can be replayed any
// number of times at O(1) memory per replay. That turns snapshot writing
// into a handful of passes that each hold O(nodes + chunk) memory:
//
//   pass 0 (nodes):  name-blob size, type first-use order, per-type counts
//   pass 1 (edges):  edge count, per-node degrees, predicate first-use order
//   write:           dictionaries / node types / triples stream straight to
//                    a SnapshotStreamWriter; the CSR adjacency is produced
//                    in node-range buckets (each bucket replays the edge
//                    stream once and sorts only its own entries)
//
// The streamed file is byte-identical to EncodeSnapshot() over the graph
// the in-memory builder (BuildScaleKgInMemory) produces from the same spec:
// both write through the one kgpack writer, and the tests pin the golden
// CRCs per seed. So everything downstream (loader, engines, service) treats
// generated datasets exactly like hand-built ones.
//
// Topology: nodes are grouped into contiguous community blocks. The first
// node of each community is its hub; members attach to the hub
// (member_of), to each other (intra-community relations), and across
// communities (bridge predicates, Zipf-biased toward nearby communities).
// Member out-degree is bounded-Pareto distributed (power law), communities
// cycle through a fixed set of domains (one member/hub type pair per
// domain), and alias/noise injection is controlled by the spec. Hubs and
// their names/types are derivable from the spec alone (InsightProfile), so
// workload construction never needs the graph.
#ifndef KGSEARCH_GEN_SCALE_KG_H_
#define KGSEARCH_GEN_SCALE_KG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "embedding/vector_store.h"
#include "kg/snapshot.h"
#include "util/status.h"

namespace kgsearch {

/// Parameters of one scale graph. Every field participates in the
/// deterministic node/edge functions, so two equal specs generate
/// byte-identical kgpack files.
struct ScaleKgSpec {
  std::string name = "scale";
  uint64_t seed = 42;

  /// Total nodes, hubs included. Communities are contiguous equal blocks
  /// (the last one absorbs the remainder); node 0 of a block is its hub.
  uint64_t num_nodes = 10'000;
  uint64_t num_communities = 16;
  /// Domains (member/hub type pairs); community c has domain c % num_domains.
  uint64_t num_domains = 6;

  /// Member out-degree ~ BoundedPareto(min, max, alpha). alpha is the
  /// power-law exponent of the degree tail (larger = thinner tail).
  uint64_t min_out_degree = 2;
  uint64_t max_out_degree = 256;
  double degree_alpha = 1.6;

  /// Edge mix per member draw: attach to the own hub, link inside the
  /// community, or bridge to another community (remainder).
  double hub_edge_prob = 0.30;
  double intra_edge_prob = 0.45;
  /// Bridge target community distance ~ Zipf(num_communities - 1, this).
  double community_zipf_alpha = 0.8;
  /// A bridge edge lands on the target community's hub with this
  /// probability (otherwise on a uniform member).
  double bridge_to_hub_prob = 0.5;
  /// A hub attachment uses the domain's "linked" predicate instead of
  /// "member_of" with this probability (semantic near-synonym traffic).
  double linked_predicate_prob = 0.12;

  /// Any drawn edge is re-labeled with a random noise predicate with this
  /// probability (Section VII-E-style label noise).
  double noise_predicate_fraction = 0.02;
  uint64_t num_noise_predicates = 4;
  uint64_t num_bridge_predicates = 4;
  uint64_t num_intra_predicates = 3;

  /// Aliases per canonical label (member/hub types and hub names); each is
  /// unregistered in the transformation library with this probability.
  uint64_t aliases_per_label = 3;
  double unknown_alias_fraction = 0.4;

  /// Predicate-space dimensionality.
  uint64_t embedding_dim = 32;

  /// Streaming knobs — they shape memory and pass counts, never bytes (the
  /// metamorphic tests pin chunk-size invariance).
  uint64_t adj_bucket_entries = 1 << 20;  ///< CSR entries per bucket pass
  uint64_t stream_buffer_bytes = 1 << 20; ///< SnapshotStreamWriter buffers
};

/// What the streaming generator did — sizes, pass counts, and the buffering
/// high-water marks the O(chunk)-memory test asserts on.
struct ScaleGenReport {
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  uint64_t num_predicates = 0;
  uint64_t num_types = 0;
  uint64_t file_bytes = 0;
  /// Replays of the edge stream (degree pass + one per adjacency bucket +
  /// the triple-array pass).
  uint64_t edge_passes = 0;
  uint64_t adjacency_buckets = 0;
  /// Peak CSR entries held by one bucket (<= max(adj_bucket_entries, max
  /// single-node degree)); the full CSR is never materialized.
  uint64_t peak_bucket_entries = 0;
  /// Peak bytes across the stream writer's flush buffers.
  uint64_t peak_stream_buffer_bytes = 0;
};

/// Streams the graph for `spec` to `path` as a kgpack snapshot without ever
/// materializing the triple set or CSR. Memory is O(num_nodes) index state
/// plus O(adj_bucket_entries + stream_buffer_bytes) chunks.
Result<ScaleGenReport> GenerateScaleKgToFile(const ScaleKgSpec& spec,
                                             const std::string& path);

/// Reference in-memory build of the same dataset (graph + space + library),
/// byte-identical under EncodeSnapshot to the streamed file. Intended for
/// tests and laptop scales; holds the whole graph.
Result<DatasetSnapshot> BuildScaleKgInMemory(const ScaleKgSpec& spec);

/// Compact, spec-derivable description of the generated graph for workload
/// construction: hub names, type names, predicate names, and the alias
/// catalogs — everything gen/insight_workload.h needs, with no graph in
/// memory. O(communities + domains), computed in microseconds.
struct InsightProfile {
  ScaleKgSpec spec;

  /// Per domain d (size num_domains).
  std::vector<std::string> member_types;
  std::vector<std::string> hub_types;
  std::vector<std::string> member_of_predicates;
  std::vector<std::string> linked_predicates;
  /// Per domain, per k < num_intra_predicates.
  std::vector<std::vector<std::string>> intra_predicates;
  /// Shared across domains.
  std::vector<std::string> bridge_predicates;
  std::vector<std::string> noise_predicates;

  /// Per community c (size num_communities).
  std::vector<std::string> hub_names;

  /// alias -> (canonical, registered?) catalogs, exactly the aliases the
  /// generator created (gen/workload.h noise-injection shape).
  std::map<std::string, std::vector<std::pair<std::string, bool>>>
      type_aliases;
  std::map<std::string, std::vector<std::pair<std::string, bool>>>
      name_aliases;

  uint64_t DomainOfCommunity(uint64_t c) const {
    return c % spec.num_domains;
  }
  /// Communities of domain d, in id order.
  std::vector<uint64_t> CommunitiesOfDomain(uint64_t d) const;
};

InsightProfile MakeInsightProfile(const ScaleKgSpec& spec);

/// A spec profile tuned per node count: communities/domains scale with the
/// graph so per-type candidate sets stay search-friendly. The benchmark
/// scales (10k / 100k / 1M) all come from here.
ScaleKgSpec ScaleSpecFor(uint64_t num_nodes, uint64_t seed = 42);

/// A deterministic block of `count` unit vectors of dimension `dim` for
/// differential tests. Row i is a pure function of (seed, i) — the same
/// per-id FastRng stream discipline the graph generator uses — so any
/// (count, dim, seed) triple reproduces bit-identically across runs, and
/// row i does not depend on count.
VectorStore GenerateEmbeddingBlock(size_t count, size_t dim, uint64_t seed);

}  // namespace kgsearch

#endif  // KGSEARCH_GEN_SCALE_KG_H_
