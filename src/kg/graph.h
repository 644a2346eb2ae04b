// In-memory knowledge graph store (Definition 1).
//
// Nodes carry a unique name and a type; directed edges carry a predicate.
// After Finalize(), an undirected CSR adjacency index supports the path
// searches of Section V (paths ignore edge directionality, paper footnote 1),
// while the stored direction is preserved for exact-match baselines and for
// TransE training, which needs (head, relation, tail) orientation.
#ifndef KGSEARCH_KG_GRAPH_H_
#define KGSEARCH_KG_GRAPH_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kg/dictionary.h"
#include "util/status.h"

namespace kgsearch {

using NodeId = uint32_t;
using PredicateId = uint32_t;
using TypeId = uint32_t;

inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// A stored directed edge (head --predicate--> tail).
struct Triple {
  NodeId head;
  PredicateId predicate;
  NodeId tail;

  auto operator<=>(const Triple&) const = default;
};

/// One entry in a node's undirected adjacency list.
struct AdjEntry {
  NodeId neighbor;
  PredicateId predicate;
  /// True when the stored edge is (node -> neighbor); false for reverse.
  bool forward;

  bool operator==(const AdjEntry&) const = default;
};

/// The canonical adjacency-list order: by neighbor id, then predicate, then
/// direction flag. Finalize(), FromFlatParts validation, the scale
/// generator's streamed CSR, and the delta overlay's merged lists all sort
/// with this one comparator, so a merged overlay list is bit-identical to
/// the list a from-scratch Finalize() would build, and triple existence is
/// a binary search of the head's list (see HasTripleIn).
inline bool AdjEntryLess(const AdjEntry& a, const AdjEntry& b) {
  if (a.neighbor != b.neighbor) return a.neighbor < b.neighbor;
  if (a.predicate != b.predicate) return a.predicate < b.predicate;
  return a.forward < b.forward;
}

/// True when `head_list` — the adjacency list of a triple's head, in
/// canonical AdjEntryLess order — holds the forward entry of
/// (head, predicate, tail).
inline bool HasTripleIn(std::span<const AdjEntry> head_list,
                        PredicateId predicate, NodeId tail) {
  return std::binary_search(head_list.begin(), head_list.end(),
                            AdjEntry{tail, predicate, true}, AdjEntryLess);
}

/// Immutable-after-finalize knowledge graph with CSR adjacency and
/// type/name indexes.
class KnowledgeGraph {
 public:
  KnowledgeGraph() = default;
  KnowledgeGraph(const KnowledgeGraph&) = delete;
  KnowledgeGraph& operator=(const KnowledgeGraph&) = delete;
  KnowledgeGraph(KnowledgeGraph&&) = default;
  KnowledgeGraph& operator=(KnowledgeGraph&&) = default;

  // ----- construction -----

  /// Adds (or returns the existing) node with the given unique name.
  /// The type of an existing node is not changed.
  NodeId AddNode(std::string_view name, std::string_view type);

  /// Appends a directed edge. A repeated (head, predicate, tail) triple is
  /// kept until Finalize(), which stores it once. Must be called before
  /// Finalize().
  void AddEdge(NodeId head, std::string_view predicate, NodeId tail);

  /// Convenience: adds nodes by name (type "Thing" if new) and the edge.
  /// kFailedPrecondition after Finalize(): the base graph is immutable —
  /// post-finalize mutation goes through the delta overlay
  /// (kg/delta_overlay.h), never through this entry point.
  Status AddTriple(std::string_view head_name, std::string_view predicate,
                   std::string_view tail_name);

  /// Drops repeated triples (each first occurrence keeps its place), then
  /// builds CSR adjacency and secondary indexes. Must be called exactly
  /// once, after which the graph is immutable.
  void Finalize();

  bool finalized() const { return finalized_; }

  // ----- basic accessors -----

  size_t NumNodes() const { return node_types_.size(); }
  size_t NumEdges() const { return triples_.size(); }
  size_t NumPredicates() const { return predicates_.size(); }
  size_t NumTypes() const { return types_.size(); }

  std::string_view NodeName(NodeId u) const { return names_.Get(u); }
  TypeId NodeType(NodeId u) const {
    KG_CHECK(u < node_types_.size());
    return node_types_[u];
  }
  std::string_view NodeTypeName(NodeId u) const {
    return types_.Get(NodeType(u));
  }
  std::string_view PredicateName(PredicateId p) const {
    return predicates_.Get(p);
  }
  std::string_view TypeName(TypeId t) const { return types_.Get(t); }

  /// Node lookup by unique name; kInvalidNode when absent.
  NodeId FindNode(std::string_view name) const {
    SymbolId id = names_.Lookup(name);
    return id == kInvalidSymbol ? kInvalidNode : id;
  }
  /// Predicate id by name; kInvalidSymbol when absent.
  PredicateId FindPredicate(std::string_view name) const {
    return predicates_.Lookup(name);
  }
  /// Type id by name; kInvalidSymbol when absent.
  TypeId FindType(std::string_view name) const { return types_.Lookup(name); }

  /// All stored directed triples, in insertion order; before Finalize() it
  /// still holds repeats, as do NumEdges() and AverageDegree().
  const std::vector<Triple>& triples() const { return triples_; }

  // ----- finalized-only indexes -----

  /// Undirected adjacency of u (both edge directions). Requires Finalize().
  std::span<const AdjEntry> Neighbors(NodeId u) const {
    KG_CHECK(finalized_ && u < node_types_.size());
    return std::span<const AdjEntry>(adj_.data() + adj_offsets_[u],
                                     adj_offsets_[u + 1] - adj_offsets_[u]);
  }

  /// Undirected degree of u. Requires Finalize().
  size_t Degree(NodeId u) const { return Neighbors(u).size(); }

  /// All nodes of a given type. Requires Finalize().
  std::span<const NodeId> NodesOfType(TypeId t) const {
    KG_CHECK(finalized_);
    if (t >= type_offsets_.size() - 1) return {};
    return std::span<const NodeId>(
        type_members_.data() + type_offsets_[t],
        type_offsets_[t + 1] - type_offsets_[t]);
  }

  /// True when a directed edge (head, predicate, tail) exists: a binary
  /// search of the head's adjacency list. False for out-of-range ids.
  /// Requires Finalize().
  bool HasTriple(NodeId head, PredicateId predicate, NodeId tail) const {
    return head < NumNodes() && HasTripleIn(Neighbors(head), predicate, tail);
  }

  /// Average undirected degree. Requires Finalize().
  double AverageDegree() const {
    return NumNodes() == 0
               ? 0.0
               : 2.0 * static_cast<double>(NumEdges()) /
                     static_cast<double>(NumNodes());
  }

  /// Interns a type name (usable before Finalize, e.g. by generators).
  TypeId InternType(std::string_view type) { return types_.Intern(type); }
  /// Interns a predicate name.
  PredicateId InternPredicate(std::string_view predicate) {
    return predicates_.Intern(predicate);
  }

  // ----- flat storage (kg/snapshot.h) -----

  const Dictionary& names_dict() const { return names_; }
  const Dictionary& types_dict() const { return types_; }
  const Dictionary& predicates_dict() const { return predicates_; }
  const std::vector<TypeId>& node_types() const { return node_types_; }

  /// CSR arrays; require Finalize().
  std::span<const uint64_t> adj_offsets() const {
    KG_CHECK(finalized_);
    return adj_offsets_;
  }
  std::span<const AdjEntry> adjacency() const {
    KG_CHECK(finalized_);
    return adj_;
  }
  std::span<const uint64_t> type_offsets() const {
    KG_CHECK(finalized_);
    return type_offsets_;
  }
  std::span<const NodeId> type_members() const {
    KG_CHECK(finalized_);
    return type_members_;
  }

  /// Everything a finalized graph is made of, in flat-buffer form. Produced
  /// by the kgpack decoder; consumed by FromFlatParts.
  struct FlatParts {
    Dictionary names;
    Dictionary types;
    Dictionary predicates;
    std::vector<TypeId> node_types;
    std::vector<Triple> triples;
    std::vector<uint64_t> adj_offsets;
    std::vector<AdjEntry> adj;
    std::vector<uint64_t> type_offsets;
    std::vector<NodeId> type_members;
  };

  /// Restores a finalized graph by installing prebuilt CSR/index vectors —
  /// no re-sorting, no re-parsing, no index to rebuild. Every structural
  /// invariant Finalize() would have established is re-checked, the CSR
  /// against the triples by binary search (O(|E| log degree)); violations
  /// are ParseErrors, never aborts, so corrupt snapshots cannot produce a
  /// graph that later trips KG_CHECK.
  static Result<std::unique_ptr<KnowledgeGraph>> FromFlatParts(
      FlatParts parts);

 private:
  Dictionary names_;       // node id == name symbol id
  Dictionary types_;
  Dictionary predicates_;
  std::vector<TypeId> node_types_;
  std::vector<Triple> triples_;

  bool finalized_ = false;
  std::vector<uint64_t> adj_offsets_;  // size NumNodes()+1
  std::vector<AdjEntry> adj_;
  std::vector<uint64_t> type_offsets_;  // size NumTypes()+1
  std::vector<NodeId> type_members_;
};

}  // namespace kgsearch

#endif  // KGSEARCH_KG_GRAPH_H_
