// Lazily materialized semantic graph weights (Section IV-B).
//
// Rather than building the full semantic graph SGQ up front ("high traversal
// cost"), weights are derived on the fly while the A* search expands: this
// class precomputes, per resolved sub-query, the similarity row of each query
// predicate against the whole predicate vocabulary (O(L·|P|), tiny), and
// caches the per-node heuristic bound m(u) (Lemma 1) on demand. Nodes/edges
// touched are counted, which quantifies how much of SGQ was materialized
// (the pruning percentages of Example 5).
#ifndef KGSEARCH_CORE_SEMANTIC_WEIGHTS_H_
#define KGSEARCH_CORE_SEMANTIC_WEIGHTS_H_

#include <unordered_map>
#include <vector>

#include "core/resolved_query.h"
#include "embedding/predicate_space.h"
#include "kg/graph.h"
#include "kg/graph_view.h"

namespace kgsearch {

/// Per-sub-query view of the semantic graph's edge weights and heuristics.
class SemanticWeights {
 public:
  /// Precomputes similarity rows for the sub-query's predicates. The view's
  /// predicate vocabulary must be covered by the space (the serving layer
  /// guarantees this by rejecting ingest of unknown predicates).
  SemanticWeights(const GraphView& graph, const PredicateSpace* space,
                  const ResolvedSubQuery* subquery);

  /// Weight of a KG edge with predicate `edge_pred` while matching query
  /// edge `stage` (Eq. 5, clamped positive).
  double Weight(size_t stage, PredicateId edge_pred) const {
    KG_CHECK(stage < rows_.size());
    return rows_[stage][edge_pred];
  }

  /// m(u) for a search frontier at `u` about to match query edges >= stage:
  /// the maximum weight over u's incident edges against any remaining query
  /// predicate. Upper-bounds the next traversed weight (Lemma 1). Cached.
  double MaxAdjacentWeight(NodeId u, size_t stage) const;

  /// Entries of the m(u) memo, which is keyed by (node, stage): a node
  /// probed at two stages counts twice.
  size_t materialized_nodes() const { return m_cache_.size(); }

 private:
  GraphView graph_;
  const ResolvedSubQuery* subquery_;
  /// rows_[stage][pred] = clamped similarity of query predicate `stage`
  /// against vocabulary predicate `pred`.
  std::vector<std::vector<double>> rows_;
  /// rowmax_[stage][pred] = max over query stages >= stage of rows_.
  std::vector<std::vector<double>> rowmax_;
  /// cache key packs (node, stage) into disjoint 32-bit halves.
  mutable std::unordered_map<uint64_t, double> m_cache_;
};

}  // namespace kgsearch

#endif  // KGSEARCH_CORE_SEMANTIC_WEIGHTS_H_
