// TransH knowledge-graph embedding trainer (Wang et al., AAAI 2014),
// the paper's cited alternative to TransE (Section IV-A, ref. [57]).
//
// Each relation r has a hyperplane normal w_r and a translation d_r; the
// score of (h, r, t) is ||h_perp + d_r - t_perp||^2 with x_perp =
// x - (w_r^T x) w_r. TransH separates relations that TransE conflates when
// one entity participates in many-to-one relations. Negatives are drawn as
// in TransE (embedding/transe.h), always choosing head or tail at random.
#ifndef KGSEARCH_EMBEDDING_TRANSH_H_
#define KGSEARCH_EMBEDDING_TRANSH_H_

#include "embedding/predicate_space.h"
#include "embedding/transe.h"

namespace kgsearch {

/// TransH hyper-parameters (superset of TransE's).
struct TransHConfig {
  size_t dim = 50;
  size_t epochs = 50;
  double learning_rate = 0.01;
  double margin = 1.0;
  /// Weight of the soft orthogonality constraint |w_r^T d_r| / ||d_r||.
  double orthogonality_weight = 0.25;
  uint64_t seed = 42;
};

/// Learned TransH embedding. The predicate semantic space uses the
/// translation vectors d_r (the analogue of TransE's relation vectors).
struct TransHEmbedding {
  std::vector<FloatVec> entity;       ///< indexed by NodeId
  std::vector<FloatVec> translation;  ///< d_r, indexed by PredicateId
  std::vector<FloatVec> normal;       ///< w_r (unit), indexed by PredicateId
  double final_epoch_loss = 0.0;
};

/// Trains TransH on a finalized graph. Deterministic for a fixed config.
Result<TransHEmbedding> TrainTransH(const KnowledgeGraph& graph,
                                    const TransHConfig& config);

/// Predicate space over the learned translation vectors d_r.
PredicateSpace PredicateSpaceFromTransH(const KnowledgeGraph& graph,
                                        const TransHEmbedding& embedding);

}  // namespace kgsearch

#endif  // KGSEARCH_EMBEDDING_TRANSH_H_
