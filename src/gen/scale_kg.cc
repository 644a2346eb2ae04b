#include "gen/scale_kg.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "embedding/vector_math.h"
#include "kg/snapshot_stream.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace kgsearch {

namespace {

// Independent random streams derived from spec.seed; each feature keys its
// FastRng off one of these so adding a feature never shifts another's draws.
constexpr uint64_t kEdgeSalt = 0xE46E5A17;
constexpr uint64_t kAliasSalt = 0x0A11A5ED;
constexpr uint64_t kVectorSalt = 0x00CE2704;

// Sub-streams inside the vector salt.
constexpr uint64_t kDomainCentroidStream = 1'000'000;
constexpr uint64_t kBridgeCentroidStream = 2'000'000;
constexpr uint64_t kPredicateStream = 3'000'000;

enum EdgeKind { kEdgeHub, kEdgeIntra, kEdgeBridge };

/// Predicate families, for centroid/strength assignment.
enum PredFamily { kFamMemberOf, kFamLinked, kFamIntra, kFamBridge, kFamNoise };

struct PredicateInfo {
  std::string name;
  int family;
  uint64_t domain;   ///< centroid domain (member_of/linked/intra only)
  double strength;   ///< target cosine against the family centroid
};

/// A unit vector at the given cosine against `centroid`: random orthogonal
/// direction scaled by sqrt(1 - s^2) (same construction the laptop-scale
/// generator uses for its controlled predicate semantics).
FloatVec VectorWithStrength(const FloatVec& centroid, double strength,
                            FastRng* rng) {
  FloatVec ortho = RandomUnitVec(centroid.size(), rng);
  const double proj = Dot(ortho, centroid);
  for (size_t i = 0; i < ortho.size(); ++i) {
    ortho[i] -= static_cast<float>(proj * centroid[i]);
  }
  NormalizeInPlace(&ortho);
  const double s = std::min(1.0, std::max(-1.0, strength));
  const double o = std::sqrt(std::max(0.0, 1.0 - s * s));
  FloatVec v(centroid.size());
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<float>(s * centroid[i] + o * ortho[i]);
  }
  NormalizeInPlace(&v);
  return v;
}

/// The deterministic node/edge model: every name, type, and edge is a pure
/// function of (spec, node id), so any pass can replay any part of the
/// graph at O(1) memory.
class ScaleModel {
 public:
  explicit ScaleModel(const ScaleKgSpec& spec)
      : spec_(spec),
        V_(spec.num_nodes),
        C_(spec.num_communities),
        D_(spec.num_domains) {
    base_.resize(C_ + 1);
    for (uint64_t c = 0; c <= C_; ++c) {
      base_[c] = static_cast<uint64_t>(
          static_cast<unsigned __int128>(c) * V_ / C_);
    }
    type_names_.resize(2 * D_);
    for (uint64_t d = 0; d < D_; ++d) {
      type_names_[HubTypeKey(d)] = StrFormat("d%llu_hub",
                                             (unsigned long long)d);
      type_names_[MemberTypeKey(d)] =
          StrFormat("d%llu_entity", (unsigned long long)d);
    }
    const uint64_t K = spec.num_intra_predicates;
    const uint64_t B = spec.num_bridge_predicates;
    const uint64_t N = spec.num_noise_predicates;
    preds_.resize(2 * D_ + D_ * K + B + N);
    for (uint64_t d = 0; d < D_; ++d) {
      preds_[MemberOfKey(d)] = {
          StrFormat("d%llu_member_of", (unsigned long long)d), kFamMemberOf,
          d, 0.95};
      preds_[LinkedKey(d)] = {
          StrFormat("d%llu_linked_to", (unsigned long long)d), kFamLinked, d,
          0.88};
      for (uint64_t k = 0; k < K; ++k) {
        preds_[IntraKey(d, k)] = {
            StrFormat("d%llu_rel%llu", (unsigned long long)d,
                      (unsigned long long)k),
            kFamIntra, d, 0.82 - 0.06 * static_cast<double>(k)};
      }
    }
    for (uint64_t b = 0; b < B; ++b) {
      preds_[BridgeKey(b)] = {
          StrFormat("bridge_%llu", (unsigned long long)b), kFamBridge, 0,
          0.9 - 0.05 * static_cast<double>(b)};
    }
    for (uint64_t j = 0; j < N; ++j) {
      preds_[NoiseKey(j)] = {StrFormat("noise_%llu", (unsigned long long)j),
                             kFamNoise, 0, 0.0};
    }
  }

  Status Validate() const {
    const ScaleKgSpec& s = spec_;
    auto bad = [](const char* msg) { return Status::InvalidArgument(msg); };
    if (s.num_nodes == 0 || s.num_nodes >= UINT32_MAX) {
      return bad("scale spec: num_nodes must be in [1, 2^32)");
    }
    if (s.num_communities == 0 || s.num_communities > s.num_nodes) {
      return bad("scale spec: num_communities must be in [1, num_nodes]");
    }
    if (s.num_domains == 0 || s.num_domains > s.num_communities) {
      return bad("scale spec: num_domains must be in [1, num_communities]");
    }
    if (s.min_out_degree == 0 || s.max_out_degree < s.min_out_degree) {
      return bad("scale spec: need 1 <= min_out_degree <= max_out_degree");
    }
    if (!(s.degree_alpha > 0.0)) {
      return bad("scale spec: degree_alpha must be > 0");
    }
    for (double p : {s.hub_edge_prob, s.intra_edge_prob,
                     s.bridge_to_hub_prob, s.linked_predicate_prob,
                     s.noise_predicate_fraction, s.unknown_alias_fraction}) {
      if (!(p >= 0.0 && p <= 1.0)) {
        return bad("scale spec: probabilities must be in [0, 1]");
      }
    }
    if (s.hub_edge_prob + s.intra_edge_prob > 1.0) {
      return bad("scale spec: hub_edge_prob + intra_edge_prob must be <= 1");
    }
    if (s.num_intra_predicates == 0 || s.num_bridge_predicates == 0 ||
        s.num_noise_predicates == 0) {
      return bad("scale spec: predicate family sizes must be >= 1");
    }
    if (s.embedding_dim < 2) {
      return bad("scale spec: embedding_dim must be >= 2");
    }
    if (s.adj_bucket_entries == 0 || s.stream_buffer_bytes == 0) {
      return bad("scale spec: streaming chunk sizes must be >= 1");
    }
    return Status::OK();
  }

  uint64_t num_nodes() const { return V_; }
  uint64_t num_communities() const { return C_; }
  uint64_t num_domains() const { return D_; }
  const ScaleKgSpec& spec() const { return spec_; }
  uint64_t CommunityBase(uint64_t c) const { return base_[c]; }

  // Type keys: hub type then member type per domain, keyed 2d / 2d+1.
  uint64_t HubTypeKey(uint64_t d) const { return 2 * d; }
  uint64_t MemberTypeKey(uint64_t d) const { return 2 * d + 1; }
  const std::string& TypeName(uint64_t key) const { return type_names_[key]; }
  uint64_t NumTypeKeys() const { return type_names_.size(); }

  // Predicate keys, laid out family by family.
  uint64_t MemberOfKey(uint64_t d) const { return d; }
  uint64_t LinkedKey(uint64_t d) const { return D_ + d; }
  uint64_t IntraKey(uint64_t d, uint64_t k) const {
    return 2 * D_ + d * spec_.num_intra_predicates + k;
  }
  uint64_t BridgeKey(uint64_t b) const {
    return 2 * D_ + D_ * spec_.num_intra_predicates + b;
  }
  uint64_t NoiseKey(uint64_t j) const {
    return BridgeKey(spec_.num_bridge_predicates) + j;
  }
  uint64_t NumPredKeys() const { return preds_.size(); }
  const PredicateInfo& Pred(uint64_t key) const { return preds_[key]; }

  uint64_t CommunityOf(uint64_t id) const {
    uint64_t c = static_cast<uint64_t>(
        static_cast<unsigned __int128>(id) * C_ / V_);
    if (c >= C_) c = C_ - 1;
    while (base_[c + 1] <= id) ++c;
    while (base_[c] > id) --c;
    return c;
  }

  uint64_t DomainOf(uint64_t c) const { return c % D_; }
  bool IsHub(uint64_t id, uint64_t c) const { return id == base_[c]; }

  std::string NodeName(uint64_t id, uint64_t c) const {
    return IsHub(id, c)
               ? StrFormat("hub_c%llu", (unsigned long long)c)
               : StrFormat("e%llu", (unsigned long long)id);
  }
  uint64_t TypeKeyOf(uint64_t id, uint64_t c) const {
    const uint64_t d = DomainOf(c);
    return IsHub(id, c) ? HubTypeKey(d) : MemberTypeKey(d);
  }

  /// Replays the whole edge stream in canonical order (node id order,
  /// hub-ring edges for hubs, sampled edges for members), invoking
  /// fn(head, pred_key, tail) per emitted edge. The stream is duplicate-
  /// and self-loop-free, so Finalize() drops no repeats and the streamed
  /// triple array matches the in-memory one exactly.
  template <typename Fn>
  void EmitAllEdges(Fn&& fn) const {
    for (uint64_t c = 0; c < C_; ++c) {
      const uint64_t lo = base_[c], hi = base_[c + 1];
      EmitHubEdges(c, fn);
      for (uint64_t id = lo + 1; id < hi; ++id) {
        EmitMemberEdges(id, c, fn);
      }
    }
  }

  template <typename Fn>
  void EmitHubEdges(uint64_t c, Fn&& fn) const {
    if (C_ <= 1) return;
    const uint64_t hub = base_[c];
    std::vector<std::pair<uint32_t, uint32_t>> seen;
    for (uint64_t i = 0; i < 4; ++i) {
      const uint64_t c2 = (c + (1ull << i)) % C_;
      if (c2 == c) continue;
      const uint32_t key = static_cast<uint32_t>(
          BridgeKey(i % spec_.num_bridge_predicates));
      const uint32_t target = static_cast<uint32_t>(base_[c2]);
      if (!Remember(&seen, key, target)) continue;
      fn(static_cast<NodeId>(hub), key, static_cast<NodeId>(target));
    }
  }

  template <typename Fn>
  void EmitMemberEdges(uint64_t id, uint64_t c, Fn&& fn) const {
    const uint64_t lo = base_[c], hi = base_[c + 1];
    const uint64_t members = hi - lo - 1;
    const uint64_t d = DomainOf(c);
    FastRng rng(MixSeed(spec_.seed + kEdgeSalt, id));
    const uint64_t outdeg = rng.BoundedPareto(
        spec_.min_out_degree, spec_.max_out_degree, spec_.degree_alpha);
    std::vector<std::pair<uint32_t, uint32_t>> seen;
    seen.reserve(outdeg);
    for (uint64_t i = 0; i < outdeg; ++i) {
      const double roll = rng.UniformReal();
      int kind = roll < spec_.hub_edge_prob
                     ? kEdgeHub
                     : (roll < spec_.hub_edge_prob + spec_.intra_edge_prob
                            ? kEdgeIntra
                            : kEdgeBridge);
      if (kind == kEdgeIntra && members < 2) kind = kEdgeHub;
      if (kind == kEdgeBridge && C_ <= 1) kind = kEdgeHub;

      uint64_t target = lo;
      uint64_t pred_key = MemberOfKey(d);
      switch (kind) {
        case kEdgeHub:
          target = lo;
          pred_key = rng.Bernoulli(spec_.linked_predicate_prob)
                         ? LinkedKey(d)
                         : MemberOfKey(d);
          break;
        case kEdgeIntra: {
          uint64_t idx = rng.UniformIndex(members - 1);
          const uint64_t own = id - lo - 1;
          if (idx >= own) ++idx;
          target = lo + 1 + idx;
          pred_key =
              IntraKey(d, rng.UniformIndex(spec_.num_intra_predicates));
          break;
        }
        case kEdgeBridge: {
          const uint64_t c2 =
              (c + 1 + rng.Zipf(C_ - 1, spec_.community_zipf_alpha)) % C_;
          const uint64_t lo2 = base_[c2];
          const uint64_t m2 = base_[c2 + 1] - lo2 - 1;
          const bool to_hub = rng.Bernoulli(spec_.bridge_to_hub_prob);
          target = (to_hub || m2 == 0) ? lo2 : lo2 + 1 + rng.UniformIndex(m2);
          pred_key = BridgeKey(rng.UniformIndex(spec_.num_bridge_predicates));
          break;
        }
      }
      if (rng.Bernoulli(spec_.noise_predicate_fraction)) {
        pred_key = NoiseKey(rng.UniformIndex(spec_.num_noise_predicates));
      }
      if (target == id) continue;
      if (!Remember(&seen, static_cast<uint32_t>(pred_key),
                    static_cast<uint32_t>(target))) {
        continue;
      }
      fn(static_cast<NodeId>(id), static_cast<uint32_t>(pred_key),
         static_cast<NodeId>(target));
    }
  }

 private:
  /// Linear-scan dedup (out-degrees are small); true when newly inserted.
  static bool Remember(std::vector<std::pair<uint32_t, uint32_t>>* seen,
                       uint32_t pred_key, uint32_t target) {
    for (const auto& [p, t] : *seen) {
      if (p == pred_key && t == target) return false;
    }
    seen->emplace_back(pred_key, target);
    return true;
  }

  ScaleKgSpec spec_;
  uint64_t V_, C_, D_;
  std::vector<uint64_t> base_;
  std::vector<std::string> type_names_;
  std::vector<PredicateInfo> preds_;
};

/// Node pass: name-blob bytes plus type first-use order and counts.
struct NodePassResult {
  uint64_t name_blob_bytes = 0;
  uint64_t type_blob_bytes = 0;
  std::vector<uint64_t> type_order;     ///< type keys in first-use order
  std::vector<uint32_t> type_id_of_key; ///< key -> dictionary type id
  std::vector<uint64_t> type_counts;    ///< by type id
};

NodePassResult RunNodePass(const ScaleModel& model) {
  NodePassResult out;
  out.type_id_of_key.assign(model.NumTypeKeys(), UINT32_MAX);
  for (uint64_t c = 0; c < model.num_communities(); ++c) {
    const uint64_t lo = model.CommunityBase(c);
    const uint64_t hi = model.CommunityBase(c + 1);
    for (uint64_t id = lo; id < hi; ++id) {
      out.name_blob_bytes += model.NodeName(id, c).size();
      const uint64_t key = model.TypeKeyOf(id, c);
      if (out.type_id_of_key[key] == UINT32_MAX) {
        out.type_id_of_key[key] =
            static_cast<uint32_t>(out.type_order.size());
        out.type_order.push_back(key);
        out.type_blob_bytes += model.TypeName(key).size();
        out.type_counts.push_back(0);
      }
      ++out.type_counts[out.type_id_of_key[key]];
    }
  }
  return out;
}

/// Edge pass: edge count, per-node degrees, predicate first-use order.
struct EdgePassResult {
  uint64_t num_edges = 0;
  uint64_t pred_blob_bytes = 0;
  std::vector<uint32_t> degree;          ///< undirected CSR degree per node
  std::vector<uint64_t> pred_order;      ///< pred keys in first-use order
  std::vector<uint32_t> pred_id_of_key;  ///< key -> graph predicate id
};

EdgePassResult RunEdgePass(const ScaleModel& model) {
  EdgePassResult out;
  out.degree.assign(model.num_nodes(), 0);
  out.pred_id_of_key.assign(model.NumPredKeys(), UINT32_MAX);
  model.EmitAllEdges([&](NodeId head, uint32_t pred_key, NodeId tail) {
    ++out.num_edges;
    ++out.degree[head];
    ++out.degree[tail];
    if (out.pred_id_of_key[pred_key] == UINT32_MAX) {
      out.pred_id_of_key[pred_key] =
          static_cast<uint32_t>(out.pred_order.size());
      out.pred_order.push_back(pred_key);
      out.pred_blob_bytes += model.Pred(pred_key).name.size();
    }
  });
  return out;
}

/// The ground-truth predicate space over the graph's predicate id order.
/// Each vector depends only on (spec, pred key), so the space is identical
/// however the ids were discovered.
PredicateSpace BuildSpace(const ScaleModel& model,
                          const std::vector<uint64_t>& pred_order) {
  const uint64_t seed = model.spec().seed + kVectorSalt;
  const size_t dim = model.spec().embedding_dim;
  std::vector<FloatVec> centroids(model.num_domains());
  for (uint64_t d = 0; d < model.num_domains(); ++d) {
    FastRng rng(MixSeed(seed, kDomainCentroidStream + d));
    centroids[d] = RandomUnitVec(dim, &rng);
  }
  FastRng bridge_rng(MixSeed(seed, kBridgeCentroidStream));
  const FloatVec bridge_centroid = RandomUnitVec(dim, &bridge_rng);

  std::vector<FloatVec> vectors;
  std::vector<std::string> names;
  vectors.reserve(pred_order.size());
  names.reserve(pred_order.size());
  for (uint64_t key : pred_order) {
    const PredicateInfo& info = model.Pred(key);
    FastRng rng(MixSeed(seed, kPredicateStream + key));
    switch (info.family) {
      case kFamNoise:
        vectors.push_back(RandomUnitVec(dim, &rng));
        break;
      case kFamBridge:
        vectors.push_back(
            VectorWithStrength(bridge_centroid, info.strength, &rng));
        break;
      default:
        vectors.push_back(
            VectorWithStrength(centroids[info.domain], info.strength, &rng));
        break;
    }
    names.push_back(info.name);
  }
  return PredicateSpace(std::move(vectors), std::move(names));
}

/// Alias construction shared by the library builder and the insight
/// profile: one deterministic enumeration (domain types, then hub names),
/// one shared decision stream, optional outputs.
void BuildAliases(
    const ScaleModel& model, TransformationLibrary* library,
    std::map<std::string, std::vector<std::pair<std::string, bool>>>*
        type_catalog,
    std::map<std::string, std::vector<std::pair<std::string, bool>>>*
        name_catalog) {
  const ScaleKgSpec& spec = model.spec();
  if (spec.aliases_per_label == 0) return;
  FastRng rng(MixSeed(spec.seed, kAliasSalt));
  auto add_label = [&](const std::string& canonical, bool type_scope) {
    for (uint64_t j = 0; j < spec.aliases_per_label; ++j) {
      const std::string alias =
          StrFormat("%s_aka%llu", canonical.c_str(), (unsigned long long)j);
      // The first alias is always registered so noised queries stay
      // answerable; later ones drop out with the configured probability.
      const bool registered =
          j == 0 || !rng.Bernoulli(spec.unknown_alias_fraction);
      const bool synonym = (j % 2 == 0);
      if (registered && library != nullptr) {
        if (type_scope) {
          if (synonym) {
            library->AddTypeSynonym(alias, canonical);
          } else {
            library->AddTypeAbbreviation(alias, canonical);
          }
        } else {
          if (synonym) {
            library->AddNameSynonym(alias, canonical);
          } else {
            library->AddNameAbbreviation(alias, canonical);
          }
        }
      }
      auto* catalog = type_scope ? type_catalog : name_catalog;
      if (catalog != nullptr) {
        (*catalog)[canonical].emplace_back(alias, registered);
      }
    }
  };
  for (uint64_t d = 0; d < model.num_domains(); ++d) {
    add_label(model.TypeName(model.MemberTypeKey(d)), true);
    add_label(model.TypeName(model.HubTypeKey(d)), true);
  }
  for (uint64_t c = 0; c < model.num_communities(); ++c) {
    add_label(StrFormat("hub_c%llu", (unsigned long long)c), false);
  }
}

TransformationLibrary BuildLibrary(const ScaleModel& model) {
  TransformationLibrary library;
  BuildAliases(model, &library, nullptr, nullptr);
  return library;
}

}  // namespace

Result<ScaleGenReport> GenerateScaleKgToFile(const ScaleKgSpec& spec,
                                             const std::string& path) {
  ScaleModel model(spec);
  KG_RETURN_NOT_OK(model.Validate());
  const uint64_t V = model.num_nodes();

  const NodePassResult nodes = RunNodePass(model);
  const EdgePassResult edges = RunEdgePass(model);
  const uint64_t E = edges.num_edges;

  Result<std::unique_ptr<SnapshotStreamWriter>> opened =
      SnapshotStreamWriter::Open(path,
                                 static_cast<size_t>(spec.stream_buffer_bytes));
  KG_RETURN_NOT_OK(opened.status());
  SnapshotStreamWriter& w = *opened.ValueOrDie();

  ScaleGenReport report;
  report.num_nodes = V;
  report.num_edges = E;
  report.num_predicates = edges.pred_order.size();
  report.num_types = nodes.type_order.size();
  report.edge_passes = 1;  // the RunEdgePass replay above

  KG_RETURN_NOT_OK(w.BeginGraphSection());

  // Names dictionary (node id order == symbol id order).
  KG_RETURN_NOT_OK(w.BeginDictionary(nodes.name_blob_bytes, V));
  for (uint64_t c = 0; c < model.num_communities(); ++c) {
    const uint64_t lo = model.CommunityBase(c);
    const uint64_t hi = model.CommunityBase(c + 1);
    for (uint64_t id = lo; id < hi; ++id) {
      KG_RETURN_NOT_OK(w.AppendSymbol(model.NodeName(id, c)));
    }
  }
  KG_RETURN_NOT_OK(w.EndDictionary());

  // Types and predicates dictionaries, in first-use order.
  KG_RETURN_NOT_OK(
      w.BeginDictionary(nodes.type_blob_bytes, nodes.type_order.size()));
  for (uint64_t key : nodes.type_order) {
    KG_RETURN_NOT_OK(w.AppendSymbol(model.TypeName(key)));
  }
  KG_RETURN_NOT_OK(w.EndDictionary());
  KG_RETURN_NOT_OK(
      w.BeginDictionary(edges.pred_blob_bytes, edges.pred_order.size()));
  for (uint64_t key : edges.pred_order) {
    KG_RETURN_NOT_OK(w.AppendSymbol(model.Pred(key).name));
  }
  KG_RETURN_NOT_OK(w.EndDictionary());

  // Node types.
  KG_RETURN_NOT_OK(w.BeginNodeTypes(V));
  for (uint64_t c = 0; c < model.num_communities(); ++c) {
    const uint64_t lo = model.CommunityBase(c);
    const uint64_t hi = model.CommunityBase(c + 1);
    for (uint64_t id = lo; id < hi; ++id) {
      KG_RETURN_NOT_OK(w.AppendNodeType(
          nodes.type_id_of_key[model.TypeKeyOf(id, c)]));
    }
  }
  KG_RETURN_NOT_OK(w.EndNodeTypes());

  // Triples: one edge replay straight to disk.
  KG_RETURN_NOT_OK(w.BeginTriples(E));
  {
    Status append_status = Status::OK();
    model.EmitAllEdges([&](NodeId head, uint32_t pred_key, NodeId tail) {
      if (!append_status.ok()) return;
      append_status = w.AppendTriple(
          Triple{head, edges.pred_id_of_key[pred_key], tail});
    });
    KG_RETURN_NOT_OK(append_status);
    ++report.edge_passes;
  }
  KG_RETURN_NOT_OK(w.EndTriples());

  // CSR offsets (prefix sums of the degree array).
  KG_RETURN_NOT_OK(w.BeginAdjOffsets(V));
  {
    uint64_t running = 0;
    KG_RETURN_NOT_OK(w.AppendAdjOffset(0));
    for (uint64_t id = 0; id < V; ++id) {
      running += edges.degree[id];
      KG_RETURN_NOT_OK(w.AppendAdjOffset(running));
    }
  }
  KG_RETURN_NOT_OK(w.EndAdjOffsets());

  // CSR adjacency in node-range buckets: each bucket replays the edge
  // stream, collects only its own entries, sorts per node with
  // AdjEntryLess as KnowledgeGraph::Finalize() does, and streams them out.
  // Peak memory is one bucket, never the whole CSR.
  KG_RETURN_NOT_OK(w.BeginAdjacency(2 * E));
  {
    uint64_t lo = 0;
    while (lo < V) {
      uint64_t hi = lo;
      uint64_t entries_in_bucket = 0;
      while (hi < V &&
             (hi == lo ||
              entries_in_bucket + edges.degree[hi] <=
                  spec.adj_bucket_entries)) {
        entries_in_bucket += edges.degree[hi];
        ++hi;
      }
      std::vector<uint64_t> cursor(hi - lo + 1, 0);
      for (uint64_t id = lo; id < hi; ++id) {
        cursor[id - lo + 1] = cursor[id - lo] + edges.degree[id];
      }
      std::vector<uint64_t> fill(cursor.begin(), cursor.end() - 1);
      std::vector<AdjEntry> entries(entries_in_bucket);
      model.EmitAllEdges([&](NodeId head, uint32_t pred_key, NodeId tail) {
        const PredicateId pid = edges.pred_id_of_key[pred_key];
        if (head >= lo && head < hi) {
          entries[fill[head - lo]++] = AdjEntry{tail, pid, true};
        }
        if (tail >= lo && tail < hi) {
          entries[fill[tail - lo]++] = AdjEntry{head, pid, false};
        }
      });
      ++report.edge_passes;
      ++report.adjacency_buckets;
      report.peak_bucket_entries =
          std::max(report.peak_bucket_entries, entries_in_bucket);
      Status append_status = Status::OK();
      for (uint64_t id = lo; id < hi && append_status.ok(); ++id) {
        const auto begin =
            entries.begin() + static_cast<int64_t>(cursor[id - lo]);
        const auto end =
            entries.begin() + static_cast<int64_t>(cursor[id - lo + 1]);
        std::sort(begin, end, AdjEntryLess);
        for (auto it = begin; it != end && append_status.ok(); ++it) {
          append_status = w.AppendAdjEntry(*it);
        }
      }
      KG_RETURN_NOT_OK(append_status);
      lo = hi;
    }
  }
  KG_RETURN_NOT_OK(w.EndAdjacency());

  // Type index: offsets then members grouped by type id, ascending node id
  // within each type (communities are visited in id order).
  KG_RETURN_NOT_OK(w.BeginTypeOffsets(nodes.type_order.size()));
  {
    uint64_t running = 0;
    KG_RETURN_NOT_OK(w.AppendTypeOffset(0));
    for (uint64_t count : nodes.type_counts) {
      running += count;
      KG_RETURN_NOT_OK(w.AppendTypeOffset(running));
    }
  }
  KG_RETURN_NOT_OK(w.EndTypeOffsets());
  KG_RETURN_NOT_OK(w.BeginTypeMembers(V));
  for (uint64_t key : nodes.type_order) {
    const uint64_t d = key / 2;
    const bool hub_type = (key % 2 == 0);
    for (uint64_t c = d; c < model.num_communities();
         c += model.num_domains()) {
      const uint64_t lo2 = model.CommunityBase(c);
      const uint64_t hi2 = model.CommunityBase(c + 1);
      if (hub_type) {
        KG_RETURN_NOT_OK(w.AppendTypeMember(static_cast<NodeId>(lo2)));
      } else {
        for (uint64_t id = lo2 + 1; id < hi2; ++id) {
          KG_RETURN_NOT_OK(w.AppendTypeMember(static_cast<NodeId>(id)));
        }
      }
    }
  }
  KG_RETURN_NOT_OK(w.EndTypeMembers());
  KG_RETURN_NOT_OK(w.EndGraphSection());

  KG_RETURN_NOT_OK(w.WriteLibrarySection(BuildLibrary(model)));
  KG_RETURN_NOT_OK(w.WriteSpaceSection(BuildSpace(model, edges.pred_order)));
  KG_RETURN_NOT_OK(w.Finish());

  report.file_bytes = w.stats().file_bytes;
  report.peak_stream_buffer_bytes = w.stats().peak_buffered_bytes;
  return report;
}

Result<DatasetSnapshot> BuildScaleKgInMemory(const ScaleKgSpec& spec) {
  ScaleModel model(spec);
  KG_RETURN_NOT_OK(model.Validate());

  auto graph = std::make_unique<KnowledgeGraph>();
  for (uint64_t c = 0; c < model.num_communities(); ++c) {
    const uint64_t lo = model.CommunityBase(c);
    const uint64_t hi = model.CommunityBase(c + 1);
    for (uint64_t id = lo; id < hi; ++id) {
      graph->AddNode(model.NodeName(id, c),
                     model.TypeName(model.TypeKeyOf(id, c)));
    }
  }
  model.EmitAllEdges([&](NodeId head, uint32_t pred_key, NodeId tail) {
    graph->AddEdge(head, model.Pred(pred_key).name, tail);
  });
  graph->Finalize();

  // Predicate keys in graph id order (id order == emission first-use).
  std::unordered_map<std::string_view, uint64_t> key_by_name;
  key_by_name.reserve(model.NumPredKeys());
  for (uint64_t key = 0; key < model.NumPredKeys(); ++key) {
    key_by_name[model.Pred(key).name] = key;
  }
  std::vector<uint64_t> pred_order;
  pred_order.reserve(graph->NumPredicates());
  for (PredicateId p = 0; p < graph->NumPredicates(); ++p) {
    auto it = key_by_name.find(graph->PredicateName(p));
    KG_CHECK(it != key_by_name.end());
    pred_order.push_back(it->second);
  }

  DatasetSnapshot snapshot;
  snapshot.graph = std::move(graph);
  snapshot.space =
      std::make_unique<PredicateSpace>(BuildSpace(model, pred_order));
  snapshot.library = BuildLibrary(model);
  return snapshot;
}

std::vector<uint64_t> InsightProfile::CommunitiesOfDomain(uint64_t d) const {
  std::vector<uint64_t> out;
  for (uint64_t c = d; c < spec.num_communities; c += spec.num_domains) {
    out.push_back(c);
  }
  return out;
}

InsightProfile MakeInsightProfile(const ScaleKgSpec& spec) {
  ScaleModel model(spec);
  InsightProfile profile;
  profile.spec = spec;
  for (uint64_t d = 0; d < model.num_domains(); ++d) {
    profile.member_types.push_back(model.TypeName(model.MemberTypeKey(d)));
    profile.hub_types.push_back(model.TypeName(model.HubTypeKey(d)));
    profile.member_of_predicates.push_back(
        model.Pred(model.MemberOfKey(d)).name);
    profile.linked_predicates.push_back(model.Pred(model.LinkedKey(d)).name);
    std::vector<std::string> intra;
    for (uint64_t k = 0; k < spec.num_intra_predicates; ++k) {
      intra.push_back(model.Pred(model.IntraKey(d, k)).name);
    }
    profile.intra_predicates.push_back(std::move(intra));
  }
  for (uint64_t b = 0; b < spec.num_bridge_predicates; ++b) {
    profile.bridge_predicates.push_back(model.Pred(model.BridgeKey(b)).name);
  }
  for (uint64_t j = 0; j < spec.num_noise_predicates; ++j) {
    profile.noise_predicates.push_back(model.Pred(model.NoiseKey(j)).name);
  }
  for (uint64_t c = 0; c < model.num_communities(); ++c) {
    profile.hub_names.push_back(
        StrFormat("hub_c%llu", (unsigned long long)c));
  }
  BuildAliases(model, nullptr, &profile.type_aliases, &profile.name_aliases);
  return profile;
}

ScaleKgSpec ScaleSpecFor(uint64_t num_nodes, uint64_t seed) {
  ScaleKgSpec spec;
  spec.name = StrFormat("scale_%llu", (unsigned long long)num_nodes);
  spec.seed = seed;
  spec.num_nodes = num_nodes;
  spec.num_communities =
      std::min<uint64_t>(512, std::max<uint64_t>(8, num_nodes / 2048));
  if (spec.num_communities > num_nodes) spec.num_communities = num_nodes;
  spec.num_domains =
      std::min<uint64_t>(spec.num_communities, num_nodes >= 500'000 ? 12 : 6);
  return spec;
}

VectorStore GenerateEmbeddingBlock(size_t count, size_t dim, uint64_t seed) {
  VectorStore store(count, dim);
  for (size_t i = 0; i < count; ++i) {
    // One independent stream per row, like the graph's per-node functions:
    // row i is reproducible regardless of how many rows are generated.
    FastRng rng(MixSeed(seed + kVectorSalt, i));
    const FloatVec v = RandomUnitVec(dim, &rng);
    store.SetRow(i, v.data(), v.size());
  }
  return store;
}

}  // namespace kgsearch
