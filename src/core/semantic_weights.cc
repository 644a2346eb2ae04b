#include "core/semantic_weights.h"

#include <algorithm>

namespace kgsearch {

SemanticWeights::SemanticWeights(const GraphView& graph,
                                 const PredicateSpace* space,
                                 const ResolvedSubQuery* subquery)
    : graph_(graph), subquery_(subquery) {
  KG_CHECK(space != nullptr && subquery != nullptr);
  const size_t num_preds = graph.NumPredicates();
  const size_t stages = subquery->Length();
  KG_CHECK(space->NumPredicates() >= num_preds);

  rows_.resize(stages);
  for (size_t s = 0; s < stages; ++s) {
    rows_[s].resize(num_preds);
    PredicateId q = subquery->edge_predicates[s];
    // One contiguous pass over the vector block per stage; bitwise-identical
    // to the per-pair Weight() loop it replaces.
    space->WeightRow(q, num_preds, rows_[s].data());
  }
  // Suffix maxima over stages, so m(u) can bound "any remaining stage".
  rowmax_.assign(stages, std::vector<double>(num_preds, kMinWeight));
  for (size_t s = stages; s-- > 0;) {
    for (PredicateId p = 0; p < num_preds; ++p) {
      double v = rows_[s][p];
      if (s + 1 < stages) v = std::max(v, rowmax_[s + 1][p]);
      rowmax_[s][p] = v;
    }
  }
}

double SemanticWeights::MaxAdjacentWeight(NodeId u, size_t stage) const {
  KG_CHECK(stage < rowmax_.size());
  uint64_t key = (static_cast<uint64_t>(u) << 32) | stage;
  auto it = m_cache_.find(key);
  if (it != m_cache_.end()) return it->second;
  double m = kMinWeight;
  for (const AdjEntry& e : graph_.Neighbors(u)) {
    m = std::max(m, rowmax_[stage][e.predicate]);
    if (m >= 1.0) break;
  }
  m_cache_.emplace(key, m);
  return m;
}

}  // namespace kgsearch
