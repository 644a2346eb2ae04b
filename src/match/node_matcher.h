// The node-match relation φ (Definition 3), implemented over a knowledge
// graph view and a transformation library.
#ifndef KGSEARCH_MATCH_NODE_MATCHER_H_
#define KGSEARCH_MATCH_NODE_MATCHER_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kg/graph.h"
#include "kg/graph_view.h"
#include "match/transformation_library.h"
#include "util/lru_cache.h"
#include "util/string_util.h"

namespace kgsearch {

/// A memoized φ candidate list, stamped with the graph epoch it was computed
/// against (kg/graph_view.h). Epoch 0 is the pristine base graph; every
/// delta-overlay commit bumps it. A matcher serving epoch E treats an entry
/// stamped with any other epoch as a miss and overwrites it, so live ingest
/// can never surface a stale candidate list — while the common case (a long
/// run of queries against one epoch) still hits.
struct CachedCandidates {
  uint64_t epoch = 0;
  std::vector<NodeId> ids;
};

/// Shared memo of φ candidate lists. One cache can back every matcher over
/// the same (base graph, library) pair across all epochs — the serving layer
/// installs one instance into its engine, and per-request matchers pinned
/// to a delta snapshot share it too.
///
/// Only specific-node names are memoized: target nodes resolve through
/// MatchTypes, whose result is a handful of type ids checked per node.
///
/// Keys are std::string (owned) but lookups are heterogeneous string_views,
/// so the MatchByName hot path allocates no temporary string on a cache
/// hit; only the Put after a miss materializes the key.
struct MatcherCandidateCache {
  using Cache =
      LruCache<std::string, CachedCandidates, StringViewHash, StringViewEq>;

  explicit MatcherCandidateCache(size_t capacity) : by_name(capacity) {}

  Cache by_name;
  /// Lookups that found an entry from a different epoch (recomputed; the
  /// underlying LruCache counted them as hits, so true hits are
  /// hits() - stale_hits()).
  std::atomic<uint64_t> stale{0};

  uint64_t hits() const { return by_name.hits(); }
  uint64_t misses() const { return by_name.misses(); }
  uint64_t stale_hits() const {
    return stale.load(std::memory_order_relaxed);
  }
};

/// Resolves query node labels to knowledge-graph node candidates.
///
/// Specific nodes (name known) resolve by name; target nodes (type known)
/// resolve by type. Both go through the transformation library's identical /
/// synonym / abbreviation records. The matcher reads through a GraphView,
/// so one constructed over a pinned delta snapshot also matches nodes and
/// types the overlay added.
class NodeMatcher {
 public:
  NodeMatcher(const KnowledgeGraph* graph, const TransformationLibrary* library)
      : view_(*graph), library_(library) {
    KG_CHECK(graph != nullptr && library != nullptr);
  }
  NodeMatcher(GraphView view, const TransformationLibrary* library)
      : view_(view), library_(library) {
    KG_CHECK(library != nullptr);
  }

  /// Installs (or clears, with null) a candidate-list cache. The cache may
  /// be shared across matchers and epochs over the same base graph +
  /// library (entries are epoch-stamped; see MatcherCandidateCache).
  void set_candidate_cache(std::shared_ptr<MatcherCandidateCache> cache) {
    cache_ = std::move(cache);
  }
  const std::shared_ptr<MatcherCandidateCache>& candidate_cache() const {
    return cache_;
  }

  /// φ for a specific node: KG nodes whose (unique) name resolves from
  /// `query_name`. Empty when nothing matches.
  std::vector<NodeId> MatchByName(std::string_view query_name) const {
    if (cache_) {
      CachedCandidates entry;
      if (cache_->by_name.Get(query_name, &entry)) {
        if (entry.epoch == view_.epoch()) return std::move(entry.ids);
        cache_->stale.fetch_add(1, std::memory_order_relaxed);
      }
    }
    std::vector<NodeId> out;
    for (const Resolution& r : library_->ResolveName(query_name)) {
      NodeId u = view_.FindNode(r.canonical);
      if (u != kInvalidNode) out.push_back(u);
    }
    if (cache_) {
      cache_->by_name.Put(std::string(query_name),
                          CachedCandidates{view_.epoch(), out});
    }
    return out;
  }

  /// Resolves a query type label to KG TypeIds. Empty when nothing matches.
  std::vector<TypeId> MatchTypes(std::string_view query_type) const {
    std::vector<TypeId> out;
    for (const Resolution& r : library_->ResolveType(query_type)) {
      TypeId t = view_.FindType(r.canonical);
      if (t != kInvalidSymbol) out.push_back(t);
    }
    return out;
  }

  const GraphView& view() const { return view_; }
  const KnowledgeGraph* graph() const { return &view_.base(); }
  const TransformationLibrary* library() const { return library_; }

 private:
  GraphView view_;
  const TransformationLibrary* library_;
  std::shared_ptr<MatcherCandidateCache> cache_;
};

}  // namespace kgsearch

#endif  // KGSEARCH_MATCH_NODE_MATCHER_H_
