#include "ingest_stream.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "util/rng.h"
#include "util/string_util.h"

namespace perfbench {

using kgsearch::FastRng;
using kgsearch::IngestOpDto;
using kgsearch::StrFormat;

namespace {

constexpr uint64_t kStreamSalt = 0x1a6e57;
/// Adds attach to a community's hub or to one of its first kHotMembers
/// members: a fixed hot set of base nodes that every stream converges on,
/// so the delta's weight (merged adjacency of touched base nodes), and with
/// it the commit cost, hardly depends on the seed.
constexpr uint64_t kHotMembers = 32;

/// scale_kg's community layout: community c owns the node ids
/// [c·V/C, (c+1)·V/C); the first is its hub "hub_c<c>", the rest are
/// members "e<id>" (gen/scale_kg.cc ScaleModel).
uint64_t CommunityBase(const kgsearch::ScaleKgSpec& spec, uint64_t c) {
  return static_cast<uint64_t>(static_cast<unsigned __int128>(c) *
                               spec.num_nodes / spec.num_communities);
}

}  // namespace

IngestStream MakeIngestStream(const kgsearch::ScaleKgSpec& spec,
                              uint64_t base_nodes, uint64_t base_edges,
                              const std::string& dataset, size_t num_batches,
                              uint64_t seed) {
  const kgsearch::InsightProfile profile = kgsearch::MakeInsightProfile(spec);
  FastRng rng(kgsearch::MixSeed(seed, kStreamSalt));

  struct BornNode {
    std::string name;
    uint64_t community = 0;
  };
  std::vector<BornNode> born;
  std::vector<IngestOpDto> live;  // adds of committed batches, still live
  std::unordered_set<std::string> used;  // every triple ever added

  IngestStream stream;
  stream.nodes_after.push_back(base_nodes);
  stream.edges_after.push_back(base_edges);
  stream.delta_after.push_back(0);

  for (size_t b = 0; b < num_batches; ++b) {
    kgsearch::IngestRequest batch;
    batch.dataset = dataset;
    std::vector<IngestOpDto> added;
    while (batch.ops.size() < kOpsPerBatch) {
      if (!live.empty() && rng.Bernoulli(kRetractShare)) {
        const size_t i = rng.UniformIndex(live.size());
        IngestOpDto op = std::move(live[i]);
        live[i] = std::move(live.back());
        live.pop_back();
        op.retract = true;
        op.head_type.clear();
        op.tail_type.clear();
        batch.ops.push_back(std::move(op));
        continue;
      }
      // A fresh node is used by this very add, so the model never counts a
      // node the server has not seen.
      const bool fresh =
          born.empty() || rng.Bernoulli(kNewNodeShare);
      if (fresh) {
        const uint64_t c = rng.UniformIndex(spec.num_communities);
        born.push_back(
            {StrFormat("ingest_s%llu_n%zu",
                       static_cast<unsigned long long>(seed),
                       born.size()),
             c});
      }
      const BornNode& node =
          fresh ? born.back() : born[rng.UniformIndex(born.size())];
      const uint64_t c = node.community;
      const uint64_t d = profile.DomainOfCommunity(c);
      const uint64_t lo = CommunityBase(spec, c);
      const uint64_t hi = CommunityBase(spec, c + 1);
      IngestOpDto op;
      const std::string& type = profile.member_types[d];
      if (hi - lo < 2 || rng.Bernoulli(0.3)) {
        op.head = node.name;
        op.head_type = type;
        op.predicate = rng.Bernoulli(0.8)
                           ? profile.member_of_predicates[d]
                           : profile.linked_predicates[d];
        op.tail = profile.hub_names[c];
      } else {
        const uint64_t members = std::min<uint64_t>(hi - lo - 1, kHotMembers);
        const std::string member = StrFormat(
            "e%llu",
            static_cast<unsigned long long>(lo + 1 +
                                            rng.UniformIndex(members)));
        const auto& intra = profile.intra_predicates[d];
        op.predicate = intra[rng.UniformIndex(intra.size())];
        if (rng.Bernoulli(0.5)) {
          op.head = node.name;
          op.head_type = type;
          op.tail = member;
        } else {
          op.head = member;
          op.tail = node.name;
          op.tail_type = type;
        }
      }
      if (!used.insert(op.head + '\x1f' + op.predicate + '\x1f' + op.tail)
               .second) {
        continue;  // never re-add a triple: keeps the model exact
      }
      added.push_back(op);
      batch.ops.push_back(std::move(op));
    }
    for (IngestOpDto& op : added) live.push_back(std::move(op));
    stream.batches.push_back(std::move(batch));
    stream.nodes_after.push_back(base_nodes + born.size());
    stream.edges_after.push_back(base_edges + live.size());
    stream.delta_after.push_back(live.size());
  }
  return stream;
}

kgsearch::MutationBatch ToMutationBatch(const kgsearch::IngestRequest& batch) {
  kgsearch::MutationBatch out;
  out.ops.reserve(batch.ops.size());
  for (const IngestOpDto& op : batch.ops) {
    out.ops.push_back(
        op.retract ? kgsearch::Mutation::Retract(op.head, op.predicate, op.tail)
                   : kgsearch::Mutation::Add(op.head, op.predicate, op.tail,
                                             op.head_type, op.tail_type));
  }
  return out;
}

}  // namespace perfbench
