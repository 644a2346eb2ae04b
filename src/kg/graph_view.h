// Snapshot read view over a base graph plus an optional delta overlay.
//
// The base KnowledgeGraph stays immutable after Finalize(); live mutation
// appends to a DeltaOverlay (kg/delta_overlay.h) which publishes
// immutable DeltaSnapshot instances, epoch by epoch. A GraphView
// pairs the base with one pinned snapshot and answers every read the query
// engines need — adjacency, degrees, type membership, dictionary lookups,
// triple existence — with the merged result, so a query sees one consistent
// graph for its whole lifetime no matter how many batches commit while it
// runs.
//
// Design invariants:
//  - Delta node/type/predicate ids continue the base id ranges, so a view
//    id is usable wherever a base id was (embedding rows, tie-breaks).
//  - Per-node adjacency in the snapshot is FULLY MERGED (base entries minus
//    retractions plus additions, in canonical AdjEntryLess order), so
//    Neighbors() still returns a contiguous std::span with zero per-read
//    merge cost — the merge price is paid once, at commit time.
//  - Those merged lists are the delta's only edge structure: HasTriple() is
//    a binary search of the head's list, exactly as on the base CSR.
//  - GraphView is a two-pointer value type; it is cheap to copy and carries
//    no ownership. Whoever builds one must keep the base graph and the
//    pinned snapshot (shared_ptr) alive for the view's lifetime.
#ifndef KGSEARCH_KG_GRAPH_VIEW_H_
#define KGSEARCH_KG_GRAPH_VIEW_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kg/graph.h"
#include "util/string_util.h"

namespace kgsearch {

/// One immutable published state of a delta overlay. Built exclusively by
/// DeltaOverlay::Commit (clone → validate → apply → publish); readers hold
/// it via shared_ptr<const DeltaSnapshot> and never see a half-applied
/// batch. All fields are logically const after publication.
struct DeltaSnapshot {
  /// Monotone per-overlay commit counter; epoch 0 is "no delta" (a null
  /// snapshot), the first commit publishes epoch 1.
  uint64_t epoch = 0;

  /// Base dictionary sizes captured at overlay creation. Ids below these
  /// bounds resolve in the base graph; ids at or above resolve in the
  /// extension vectors below (id - base_* indexes them).
  size_t base_nodes = 0;
  size_t base_types = 0;
  size_t base_predicates = 0;

  // ----- dictionary extensions (append-only across commits) -----
  std::vector<std::string> node_names;
  std::vector<TypeId> node_types;  // parallel to node_names
  std::vector<std::string> type_names;
  std::vector<std::string> predicate_names;
  // Probed with string_views (transparent hashing).
  std::unordered_map<std::string, NodeId, StringViewHash, StringViewEq>
      name_index;
  std::unordered_map<std::string, TypeId, StringViewHash, StringViewEq>
      type_index;
  std::unordered_map<std::string, PredicateId, StringViewHash, StringViewEq>
      predicate_index;

  // ----- merged structure for every node the delta touches -----
  /// Fully merged adjacency (canonical AdjEntryLess order) for each node
  /// whose neighborhood differs from the base. New nodes always have an
  /// entry (possibly empty after retractions).
  std::unordered_map<NodeId, std::vector<AdjEntry>> adjacency;
  /// Nodes the delta added to each type, ascending (delta node ids only —
  /// base type membership never changes, so concatenating the base span
  /// with this list keeps the whole membership sorted).
  std::unordered_map<TypeId, std::vector<NodeId>> type_members;

  // ----- net effect on the triple set (drives compaction + differential) --
  /// Delta-born triples currently live, in first-add order.
  std::vector<Triple> added;
  /// Base triples currently retracted.
  std::vector<Triple> retracted;
  /// Net edge count of the merged graph.
  size_t num_edges = 0;
};

/// Concatenation of the base type-membership span and the delta's addition
/// list; iterable like a single sorted range of NodeIds.
class TypeMemberRange {
 public:
  TypeMemberRange() = default;
  TypeMemberRange(std::span<const NodeId> base, std::span<const NodeId> extra)
      : base_(base), extra_(extra) {}

  class Iterator {
   public:
    using value_type = NodeId;
    using difference_type = ptrdiff_t;
    Iterator() = default;
    Iterator(const TypeMemberRange* r, size_t i) : range_(r), index_(i) {}
    NodeId operator*() const { return (*range_)[index_]; }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++index_;
      return old;
    }
    bool operator==(const Iterator&) const = default;

   private:
    const TypeMemberRange* range_ = nullptr;
    size_t index_ = 0;
  };

  size_t size() const { return base_.size() + extra_.size(); }
  bool empty() const { return size() == 0; }
  NodeId operator[](size_t i) const {
    return i < base_.size() ? base_[i] : extra_[i - base_.size()];
  }
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

  std::span<const NodeId> base_span() const { return base_; }
  std::span<const NodeId> extra_span() const { return extra_; }

 private:
  std::span<const NodeId> base_;
  std::span<const NodeId> extra_;
};

/// A consistent read view: base graph + pinned delta snapshot (or none).
/// Implicitly constructible from a bare KnowledgeGraph so legacy call sites
/// that pass `*graph_` keep compiling and behaving identically.
class GraphView {
 public:
  GraphView(const KnowledgeGraph& base)  // NOLINT(google-explicit-constructor)
      : base_(&base) {}
  GraphView(const KnowledgeGraph* base, const DeltaSnapshot* delta)
      : base_(base), delta_(delta) {}

  const KnowledgeGraph& base() const { return *base_; }
  const DeltaSnapshot* delta() const { return delta_; }
  /// Snapshot identity for cache stamping: 0 = pristine base.
  uint64_t epoch() const { return delta_ ? delta_->epoch : 0; }

  // ----- sizes -----

  size_t NumNodes() const {
    return base_->NumNodes() + (delta_ ? delta_->node_names.size() : 0);
  }
  size_t NumEdges() const {
    return delta_ ? delta_->num_edges : base_->NumEdges();
  }
  size_t NumTypes() const {
    return base_->NumTypes() + (delta_ ? delta_->type_names.size() : 0);
  }
  size_t NumPredicates() const {
    return base_->NumPredicates() +
           (delta_ ? delta_->predicate_names.size() : 0);
  }
  double AverageDegree() const {
    return NumNodes() == 0 ? 0.0
                           : 2.0 * static_cast<double>(NumEdges()) /
                                 static_cast<double>(NumNodes());
  }

  // ----- per-id accessors -----

  std::string_view NodeName(NodeId u) const {
    if (delta_ && u >= delta_->base_nodes) {
      return delta_->node_names[u - delta_->base_nodes];
    }
    return base_->NodeName(u);
  }
  TypeId NodeType(NodeId u) const {
    if (delta_ && u >= delta_->base_nodes) {
      return delta_->node_types[u - delta_->base_nodes];
    }
    return base_->NodeType(u);
  }
  std::string_view NodeTypeName(NodeId u) const { return TypeName(NodeType(u)); }
  std::string_view TypeName(TypeId t) const {
    if (delta_ && t >= delta_->base_types) {
      return delta_->type_names[t - delta_->base_types];
    }
    return base_->TypeName(t);
  }
  std::string_view PredicateName(PredicateId p) const {
    if (delta_ && p >= delta_->base_predicates) {
      return delta_->predicate_names[p - delta_->base_predicates];
    }
    return base_->PredicateName(p);
  }

  // ----- dictionary lookups -----

  NodeId FindNode(std::string_view name) const {
    NodeId id = base_->FindNode(name);
    if (id != kInvalidNode || !delta_) return id;
    auto it = delta_->name_index.find(name);
    return it == delta_->name_index.end() ? kInvalidNode : it->second;
  }
  TypeId FindType(std::string_view name) const {
    TypeId id = base_->FindType(name);
    if (id != kInvalidSymbol || !delta_) return id;
    auto it = delta_->type_index.find(name);
    return it == delta_->type_index.end() ? kInvalidSymbol : it->second;
  }
  PredicateId FindPredicate(std::string_view name) const {
    PredicateId id = base_->FindPredicate(name);
    if (id != kInvalidSymbol || !delta_) return id;
    auto it = delta_->predicate_index.find(name);
    return it == delta_->predicate_index.end() ? kInvalidSymbol : it->second;
  }

  // ----- structure -----

  /// Merged undirected adjacency; contiguous span either way (overlay lists
  /// are pre-merged at commit time).
  std::span<const AdjEntry> Neighbors(NodeId u) const {
    if (delta_) {
      auto it = delta_->adjacency.find(u);
      if (it != delta_->adjacency.end()) return it->second;
      if (u >= delta_->base_nodes) return {};
    }
    return base_->Neighbors(u);
  }

  size_t Degree(NodeId u) const { return Neighbors(u).size(); }

  /// All nodes of a type: the base's sorted members followed by the delta's
  /// ascending additions — still one sorted sequence.
  TypeMemberRange NodesOfType(TypeId t) const {
    std::span<const NodeId> base_part =
        (!delta_ || t < delta_->base_types) ? base_->NodesOfType(t)
                                            : std::span<const NodeId>{};
    std::span<const NodeId> extra_part;
    if (delta_) {
      auto it = delta_->type_members.find(t);
      if (it != delta_->type_members.end()) extra_part = it->second;
    }
    return TypeMemberRange(base_part, extra_part);
  }

  /// Directed triple existence: a binary search of the head's merged
  /// list. False for out-of-range ids.
  bool HasTriple(NodeId head, PredicateId predicate, NodeId tail) const {
    return head < NumNodes() && HasTripleIn(Neighbors(head), predicate, tail);
  }

 private:
  const KnowledgeGraph* base_;
  const DeltaSnapshot* delta_ = nullptr;
};

}  // namespace kgsearch

#endif  // KGSEARCH_KG_GRAPH_VIEW_H_
