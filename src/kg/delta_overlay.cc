#include "kg/delta_overlay.h"

#include <algorithm>
#include <set>
#include <utility>

namespace kgsearch {

namespace {

// ----- snapshot build helpers (operate on the commit-local clone) -----

NodeId ResolveNode(const DeltaSnapshot& s, const KnowledgeGraph& base,
                   std::string_view name) {
  NodeId id = base.FindNode(name);
  if (id != kInvalidNode) return id;
  auto it = s.name_index.find(name);
  return it == s.name_index.end() ? kInvalidNode : it->second;
}

PredicateId ResolvePredicate(const DeltaSnapshot& s,
                             const KnowledgeGraph& base,
                             std::string_view name) {
  PredicateId id = base.FindPredicate(name);
  if (id != kInvalidSymbol) return id;
  auto it = s.predicate_index.find(name);
  return it == s.predicate_index.end() ? kInvalidSymbol : it->second;
}

TypeId EnsureType(DeltaSnapshot& s, const KnowledgeGraph& base,
                  std::string_view name) {
  TypeId id = base.FindType(name);
  if (id != kInvalidSymbol) return id;
  auto it = s.type_index.find(name);
  if (it != s.type_index.end()) return it->second;
  id = static_cast<TypeId>(s.base_types + s.type_names.size());
  s.type_names.emplace_back(name);
  s.type_index.emplace(std::string(name), id);
  return id;
}

NodeId EnsureNode(DeltaSnapshot& s, const KnowledgeGraph& base,
                  std::string_view name, std::string_view type) {
  NodeId id = ResolveNode(s, base, name);
  if (id != kInvalidNode) return id;  // existing node keeps its type
  TypeId tid = EnsureType(s, base, type.empty() ? "Thing" : type);
  id = static_cast<NodeId>(s.base_nodes + s.node_names.size());
  s.node_names.emplace_back(name);
  s.node_types.push_back(tid);
  s.name_index.emplace(std::string(name), id);
  s.adjacency.emplace(id, std::vector<AdjEntry>{});
  // New ids are strictly increasing, so appending keeps the per-type
  // addition list ascending — the GraphView concat range stays sorted.
  s.type_members[tid].push_back(id);
  return id;
}

PredicateId EnsurePredicate(DeltaSnapshot& s, const KnowledgeGraph& base,
                            std::string_view name) {
  PredicateId id = ResolvePredicate(s, base, name);
  if (id != kInvalidSymbol) return id;
  id = static_cast<PredicateId>(s.base_predicates + s.predicate_names.size());
  s.predicate_names.emplace_back(name);
  s.predicate_index.emplace(std::string(name), id);
  return id;
}

/// Materializes the merged adjacency list for `u` (copying the base list on
/// first touch) and returns it.
std::vector<AdjEntry>& EnsureAdjacency(DeltaSnapshot& s,
                                       const KnowledgeGraph& base, NodeId u) {
  auto it = s.adjacency.find(u);
  if (it != s.adjacency.end()) return it->second;
  std::vector<AdjEntry> list;
  if (u < s.base_nodes) {
    std::span<const AdjEntry> from_base = base.Neighbors(u);
    list.assign(from_base.begin(), from_base.end());
  }
  return s.adjacency.emplace(u, std::move(list)).first->second;
}

void InsertAdjSorted(std::vector<AdjEntry>& list, AdjEntry e) {
  auto pos = std::lower_bound(list.begin(), list.end(), e, AdjEntryLess);
  list.insert(pos, e);
}

void EraseAdjSorted(std::vector<AdjEntry>& list, AdjEntry e) {
  auto pos = std::lower_bound(list.begin(), list.end(), e, AdjEntryLess);
  KG_CHECK(pos != list.end() && *pos == e);
  list.erase(pos);
}

Status ApplyAdd(DeltaSnapshot& s, const KnowledgeGraph& base,
                const Mutation& op) {
  NodeId h = EnsureNode(s, base, op.head, op.head_type);
  NodeId t = EnsureNode(s, base, op.tail, op.tail_type);
  PredicateId p = EnsurePredicate(s, base, op.predicate);
  // Re-adding a live triple is an idempotent no-op.
  if (GraphView(&base, &s).HasTriple(h, p, t)) return Status::OK();

  InsertAdjSorted(EnsureAdjacency(s, base, h), AdjEntry{t, p, true});
  InsertAdjSorted(EnsureAdjacency(s, base, t), AdjEntry{h, p, false});

  const Triple triple{h, p, t};
  if (base.HasTriple(h, p, t)) {
    // A retracted base triple coming back: un-retract, don't double-store.
    auto it = std::find(s.retracted.begin(), s.retracted.end(), triple);
    KG_CHECK(it != s.retracted.end());
    s.retracted.erase(it);
  } else {
    s.added.push_back(triple);
  }
  ++s.num_edges;
  return Status::OK();
}

Status ApplyRetract(DeltaSnapshot& s, const KnowledgeGraph& base,
                    const Mutation& op) {
  auto missing = [&op](const char* what) {
    return Status::NotFound("retract (" + op.head + ", " + op.predicate +
                            ", " + op.tail + "): " + what);
  };
  NodeId h = ResolveNode(s, base, op.head);
  if (h == kInvalidNode) return missing("unknown head node");
  NodeId t = ResolveNode(s, base, op.tail);
  if (t == kInvalidNode) return missing("unknown tail node");
  PredicateId p = ResolvePredicate(s, base, op.predicate);
  if (p == kInvalidSymbol) return missing("unknown predicate");
  if (!GraphView(&base, &s).HasTriple(h, p, t)) {
    return missing("triple does not exist");
  }

  EraseAdjSorted(EnsureAdjacency(s, base, h), AdjEntry{t, p, true});
  EraseAdjSorted(EnsureAdjacency(s, base, t), AdjEntry{h, p, false});

  const Triple triple{h, p, t};
  if (base.HasTriple(h, p, t)) {
    s.retracted.push_back(triple);
  } else {
    auto it = std::find(s.added.begin(), s.added.end(), triple);
    KG_CHECK(it != s.added.end());
    s.added.erase(it);
  }
  --s.num_edges;
  return Status::OK();
}

}  // namespace

DeltaOverlay::DeltaOverlay(const KnowledgeGraph* base) : base_(base) {
  KG_CHECK(base_ != nullptr && base_->finalized());
}

Result<uint64_t> DeltaOverlay::Commit(const MutationBatch& batch) {
  MutexLock lock(&mutex_);
  if (batch.ops.empty()) {
    return Status::InvalidArgument("empty mutation batch");
  }

  // Clone-and-apply: readers keep the published snapshot; the batch lands
  // on a private copy that becomes visible only if every op succeeds.
  auto next = published_ ? std::make_shared<DeltaSnapshot>(*published_)
                         : std::make_shared<DeltaSnapshot>();
  if (!published_) {
    next->base_nodes = base_->NumNodes();
    next->base_types = base_->NumTypes();
    next->base_predicates = base_->NumPredicates();
    next->num_edges = base_->NumEdges();
  }

  for (const Mutation& op : batch.ops) {
    Status status = op.kind == Mutation::Kind::kAddTriple
                        ? ApplyAdd(*next, *base_, op)
                        : ApplyRetract(*next, *base_, op);
    if (!status.ok()) return status;  // whole batch rejected, nothing seen
  }

  next->epoch = (published_ ? published_->epoch : 0) + 1;
  published_ = std::move(next);
  return published_->epoch;
}

std::shared_ptr<const DeltaSnapshot> DeltaOverlay::Snapshot() const {
  MutexLock lock(&mutex_);
  return published_;
}

uint64_t DeltaOverlay::epoch() const {
  MutexLock lock(&mutex_);
  return published_ ? published_->epoch : 0;
}

Result<std::unique_ptr<KnowledgeGraph>> FoldDelta(const KnowledgeGraph& base,
                                                  const DeltaSnapshot* delta) {
  if (!base.finalized()) {
    return Status::FailedPrecondition("FoldDelta: base graph not finalized");
  }
  GraphView view(&base, delta);
  auto folded = std::make_unique<KnowledgeGraph>();

  // Dictionaries first, in view id order, so every id in the folded graph
  // means exactly what it meant in the view (predicate ids index the same
  // embedding rows; node ids keep their tie-break order).
  for (TypeId t = 0; t < view.NumTypes(); ++t) {
    TypeId got = folded->InternType(view.TypeName(t));
    KG_CHECK(got == t);
  }
  for (PredicateId p = 0; p < view.NumPredicates(); ++p) {
    PredicateId got = folded->InternPredicate(view.PredicateName(p));
    KG_CHECK(got == p);
  }
  for (NodeId u = 0; u < view.NumNodes(); ++u) {
    NodeId got = folded->AddNode(view.NodeName(u), view.NodeTypeName(u));
    KG_CHECK(got == u);
  }

  // Surviving base triples in base order, then delta adds in commit order.
  std::set<Triple> retracted;
  if (delta != nullptr) {
    retracted.insert(delta->retracted.begin(), delta->retracted.end());
  }
  for (const Triple& tr : base.triples()) {
    if (retracted.contains(tr)) continue;
    folded->AddEdge(tr.head, view.PredicateName(tr.predicate), tr.tail);
  }
  if (delta != nullptr) {
    for (const Triple& tr : delta->added) {
      folded->AddEdge(tr.head, view.PredicateName(tr.predicate), tr.tail);
    }
  }

  folded->Finalize();
  KG_CHECK(folded->NumNodes() == view.NumNodes());
  KG_CHECK(folded->NumEdges() == view.NumEdges());
  return folded;
}

}  // namespace kgsearch
