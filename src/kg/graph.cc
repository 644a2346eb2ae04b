#include "kg/graph.h"

#include <algorithm>
#include <memory>
#include <numeric>

namespace kgsearch {

NodeId KnowledgeGraph::AddNode(std::string_view name, std::string_view type) {
  KG_CHECK(!finalized_);
  SymbolId existing = names_.Lookup(name);
  if (existing != kInvalidSymbol) return existing;
  NodeId id = names_.Intern(name);
  KG_CHECK(id == node_types_.size());
  node_types_.push_back(types_.Intern(type));
  return id;
}

void KnowledgeGraph::AddEdge(NodeId head, std::string_view predicate,
                             NodeId tail) {
  KG_CHECK(!finalized_);
  KG_CHECK(head < node_types_.size() && tail < node_types_.size());
  triples_.push_back(Triple{head, predicates_.Intern(predicate), tail});
}

Status KnowledgeGraph::AddTriple(std::string_view head_name,
                                 std::string_view predicate,
                                 std::string_view tail_name) {
  if (finalized_) {
    return Status::FailedPrecondition(
        "AddTriple after Finalize(): the base graph is immutable; mutate "
        "through a DeltaOverlay (kg/delta_overlay.h) instead");
  }
  NodeId h = AddNode(head_name, "Thing");
  NodeId t = AddNode(tail_name, "Thing");
  AddEdge(h, predicate, t);
  return Status::OK();
}

void KnowledgeGraph::Finalize() {
  KG_CHECK(!finalized_);
  const size_t n = node_types_.size();

  // Drop repeated triples, keeping each first occurrence in place: a stable
  // sort of indices puts every repeat right after its first occurrence.
  std::vector<size_t> order(triples_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return triples_[a] < triples_[b];
  });
  std::vector<bool> repeat(triples_.size(), false);
  for (size_t i = 1; i < order.size(); ++i) {
    repeat[order[i]] = triples_[order[i]] == triples_[order[i - 1]];
  }
  size_t kept = 0;
  for (size_t i = 0; i < triples_.size(); ++i) {
    if (!repeat[i]) triples_[kept++] = triples_[i];
  }
  triples_.resize(kept);

  // Undirected CSR: each stored triple contributes one forward entry at the
  // head and one reverse entry at the tail.
  std::vector<uint64_t> degree(n + 1, 0);
  for (const Triple& t : triples_) {
    ++degree[t.head];
    ++degree[t.tail];
  }
  adj_offsets_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) adj_offsets_[i + 1] = adj_offsets_[i] + degree[i];
  adj_.resize(adj_offsets_[n]);
  std::vector<uint64_t> cursor(adj_offsets_.begin(), adj_offsets_.end() - 1);
  for (const Triple& t : triples_) {
    adj_[cursor[t.head]++] = AdjEntry{t.tail, t.predicate, true};
    adj_[cursor[t.tail]++] = AdjEntry{t.head, t.predicate, false};
  }
  // Deterministic neighbor order (the canonical AdjEntryLess order).
  for (size_t u = 0; u < n; ++u) {
    std::sort(adj_.begin() + static_cast<int64_t>(adj_offsets_[u]),
              adj_.begin() + static_cast<int64_t>(adj_offsets_[u + 1]),
              AdjEntryLess);
  }

  // Type index.
  const size_t num_types = types_.size();
  std::vector<uint64_t> type_count(num_types + 1, 0);
  for (TypeId t : node_types_) ++type_count[t];
  type_offsets_.assign(num_types + 1, 0);
  for (size_t i = 0; i < num_types; ++i) {
    type_offsets_[i + 1] = type_offsets_[i] + type_count[i];
  }
  type_members_.resize(n);
  std::vector<uint64_t> tcursor(type_offsets_.begin(), type_offsets_.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    type_members_[tcursor[node_types_[u]]++] = u;
  }

  finalized_ = true;
}

Result<std::unique_ptr<KnowledgeGraph>> KnowledgeGraph::FromFlatParts(
    FlatParts parts) {
  const size_t n = parts.names.size();
  const size_t num_types = parts.types.size();
  const size_t num_preds = parts.predicates.size();
  const size_t num_edges = parts.triples.size();

  auto fail = [](const char* what) -> Status {
    return Status::ParseError(std::string("graph restore: ") + what);
  };

  if (parts.node_types.size() != n) return fail("node type count != nodes");
  for (TypeId t : parts.node_types) {
    if (t >= num_types) return fail("node type id out of range");
  }
  std::vector<uint64_t> degree(n, 0);
  for (const Triple& t : parts.triples) {
    if (t.head >= n || t.tail >= n) return fail("triple node out of range");
    if (t.predicate >= num_preds) {
      return fail("triple predicate out of range");
    }
    ++degree[t.head];
    ++degree[t.tail];
  }

  // CSR adjacency: offsets must be a monotone prefix-sum ending at 2|E|,
  // per-node degrees must match the triples, and each list must be
  // strictly sorted in the canonical AdjEntryLess order. Then every triple
  // claims its forward entry at the head and its reverse entry at the tail
  // by binary search; no entry may be claimed twice. 2|E| distinct claims
  // over 2|E| entries claim every entry once, which forces the adjacency to
  // be exactly the triples' CSR and the triples to be distinct, so a
  // checksum-valid but inconsistent snapshot cannot install a graph whose
  // index contradicts its triple set.
  if (parts.adj_offsets.size() != n + 1 || parts.adj_offsets[0] != 0 ||
      parts.adj_offsets[n] != parts.adj.size() ||
      parts.adj.size() != 2 * num_edges) {
    return fail("adjacency offsets malformed");
  }
  for (size_t u = 0; u < n; ++u) {
    if (parts.adj_offsets[u] > parts.adj_offsets[u + 1]) {
      return fail("adjacency offsets not monotonic");
    }
    if (parts.adj_offsets[u + 1] - parts.adj_offsets[u] != degree[u]) {
      return fail("adjacency degree mismatch");
    }
    for (uint64_t i = parts.adj_offsets[u]; i < parts.adj_offsets[u + 1];
         ++i) {
      const AdjEntry& e = parts.adj[i];
      if (e.neighbor >= n) return fail("adjacency neighbor out of range");
      if (e.predicate >= num_preds) {
        return fail("adjacency predicate out of range");
      }
      if (i > parts.adj_offsets[u] && !AdjEntryLess(parts.adj[i - 1], e)) {
        return fail("adjacency list not strictly sorted");
      }
    }
  }
  std::vector<bool> claimed(parts.adj.size(), false);
  auto claim = [&](NodeId u, const AdjEntry& e) -> Status {
    const auto begin = parts.adj.begin() +
                       static_cast<int64_t>(parts.adj_offsets[u]);
    const auto end = parts.adj.begin() +
                     static_cast<int64_t>(parts.adj_offsets[u + 1]);
    const auto it = std::lower_bound(begin, end, e, AdjEntryLess);
    if (it == end || *it != e) {
      return fail("adjacency entry has no matching triple");
    }
    const size_t i = static_cast<size_t>(it - parts.adj.begin());
    if (claimed[i]) return fail("duplicate triple");
    claimed[i] = true;
    return Status::OK();
  };
  for (const Triple& t : parts.triples) {
    KG_RETURN_NOT_OK(claim(t.head, AdjEntry{t.tail, t.predicate, true}));
    KG_RETURN_NOT_OK(claim(t.tail, AdjEntry{t.head, t.predicate, false}));
  }

  // Type index: offsets partition the node set and every member has the
  // type its bucket claims.
  if (parts.type_offsets.size() != num_types + 1 ||
      parts.type_offsets[0] != 0 ||
      parts.type_offsets[num_types] != parts.type_members.size() ||
      parts.type_members.size() != n) {
    return fail("type index malformed");
  }
  for (size_t t = 0; t < num_types; ++t) {
    if (parts.type_offsets[t] > parts.type_offsets[t + 1]) {
      return fail("type offsets not monotonic");
    }
    for (uint64_t i = parts.type_offsets[t]; i < parts.type_offsets[t + 1];
         ++i) {
      NodeId u = parts.type_members[i];
      if (u >= n || parts.node_types[u] != t) {
        return fail("type member mismatch");
      }
    }
  }

  auto graph = std::make_unique<KnowledgeGraph>();
  graph->names_ = std::move(parts.names);
  graph->types_ = std::move(parts.types);
  graph->predicates_ = std::move(parts.predicates);
  graph->node_types_ = std::move(parts.node_types);
  graph->triples_ = std::move(parts.triples);
  graph->adj_offsets_ = std::move(parts.adj_offsets);
  graph->adj_ = std::move(parts.adj);
  graph->type_offsets_ = std::move(parts.type_offsets);
  graph->type_members_ = std::move(parts.type_members);
  graph->finalized_ = true;
  return graph;
}

}  // namespace kgsearch
