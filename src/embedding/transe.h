// TransE knowledge-graph embedding trainer (Bordes et al., NIPS 2013).
//
// Implements the margin-ranking objective with uniform negative sampling:
//   L = sum_{(h,r,t)} sum_{(h',r,t')} [margin + d(h+r, t) - d(h'+r, t')]_+
// optimized by SGD, with entity vectors re-normalized to the unit ball each
// step. Each positive triple draws one corruption (head or tail replaced by
// a uniform entity), re-drawn at most 8 times while it is a stored fact.
// The paper (Section IV-A) uses the learned relation vectors as the
// predicate semantic space E.
#ifndef KGSEARCH_EMBEDDING_TRANSE_H_
#define KGSEARCH_EMBEDDING_TRANSE_H_

#include <cstdint>
#include <vector>

#include "embedding/vector_math.h"
#include "kg/graph.h"
#include "util/status.h"

namespace kgsearch {

/// TransE hyper-parameters.
struct TransEConfig {
  size_t dim = 50;          ///< embedding dimensionality
  size_t epochs = 50;       ///< passes over the triple set
  double learning_rate = 0.01;
  double margin = 1.0;      ///< margin of the ranking loss
  uint64_t seed = 42;
  /// Corrupt head or tail with equal probability ("unif" strategy).
  bool corrupt_head_and_tail = true;
};

/// Learned embedding: one vector per entity and per predicate.
struct TransEEmbedding {
  std::vector<FloatVec> entity;     ///< indexed by NodeId
  std::vector<FloatVec> predicate;  ///< indexed by PredicateId
  /// Mean margin-ranking loss of the final epoch (for convergence checks).
  double final_epoch_loss = 0.0;
};

/// Trains TransE on a finalized graph.
///
/// Runtime is O(epochs * |E| * dim). Deterministic for a fixed config.
Result<TransEEmbedding> TrainTransE(const KnowledgeGraph& graph,
                                    const TransEConfig& config);

}  // namespace kgsearch

#endif  // KGSEARCH_EMBEDDING_TRANSE_H_
