// The predicate semantic space E (Section IV-A).
//
// Holds one vector per predicate of a knowledge graph and answers cosine
// similarity queries between predicates (Eq. 5). Weights entering the
// semantic graph are clamped to [kMinWeight, 1] so the geometric-mean pss
// (Eq. 6) stays well defined.
//
// Storage and arithmetic: the unit-normalized vectors are plain rows of
// one VectorStore (embedding/vector_store.h), and every similarity —
// Cosine(), Weight(), WeightRow(), TopSimilar() and SimilarityScan() — is
// vector_math's Dot over two rows, so each entry point returns the same
// bits for the same pair, and the same bits as Dot over Vector() copies.
#ifndef KGSEARCH_EMBEDDING_PREDICATE_SPACE_H_
#define KGSEARCH_EMBEDDING_PREDICATE_SPACE_H_

#include <functional>
#include <string>
#include <vector>

#include "embedding/transe.h"
#include "embedding/vector_math.h"
#include "embedding/vector_store.h"
#include "kg/graph.h"
#include "util/status.h"

namespace kgsearch {

/// Smallest admissible similarity weight; cosines at or below zero clamp
/// here so pss products remain positive.
inline constexpr double kMinWeight = 1e-6;

/// A (predicate, similarity) pair returned by top-N queries.
struct SimilarPredicate {
  PredicateId predicate;
  double similarity;
};

/// Immutable predicate semantic space over a contiguous vector block.
class PredicateSpace {
 public:
  /// Builds from explicit vectors, one per predicate id (normalized copies
  /// are stored). `names` are kept for diagnostics/serialization.
  PredicateSpace(std::vector<FloatVec> vectors, std::vector<std::string> names);

  /// Builds from a trained TransE embedding over `graph`.
  static PredicateSpace FromTransE(const KnowledgeGraph& graph,
                                   const TransEEmbedding& embedding);

  /// Trusted restore path that adopts an already-populated store directly
  /// (the kgpack reader streams rows straight into the flat block).
  static PredicateSpace FromStore(VectorStore store,
                                  std::vector<std::string> names);

  size_t NumPredicates() const { return store_.size(); }
  const std::string& PredicateName(PredicateId p) const {
    KG_CHECK(p < names_.size());
    return names_[p];
  }
  /// Copy of predicate p's stored vector at logical dimension.
  FloatVec Vector(PredicateId p) const {
    KG_CHECK(p < store_.size());
    return store_.RowVec(p);
  }

  /// Raw cosine similarity in [-1, 1].
  double Cosine(PredicateId a, PredicateId b) const;

  /// Edge weight per Eq. 5, clamped into [kMinWeight, 1].
  double Weight(PredicateId a, PredicateId b) const {
    double c = Cosine(a, b);
    if (c < kMinWeight) return kMinWeight;
    if (c > 1.0) return 1.0;
    return c;
  }

  /// Fills out[p] = Weight(q, p) for p in [0, count). Bitwise-identical to
  /// calling Weight per pair; one contiguous pass over the block instead of
  /// count random row touches.
  void WeightRow(PredicateId q, size_t count, double* out) const;

  /// The `n` predicates most similar to `p` (excluding `p`), descending,
  /// ties broken by ascending predicate id: SimilarityScan into a top-n
  /// heap.
  std::vector<SimilarPredicate> TopSimilar(PredicateId p, size_t n) const;

  /// Streams (q, Cosine(p, q)) for every q != p in ascending id order —
  /// exact scalar similarities, no sorting and no top-k machinery. For
  /// callers (baselines) that fold over all similarities themselves.
  void SimilarityScan(
      PredicateId p,
      const std::function<void(PredicateId, double)>& fn) const;

  /// Text serialization: one line per predicate, "name dim v1 v2 ...".
  std::string Serialize() const;

  /// Parses Serialize() output. Predicate ids are assigned in line order;
  /// `graph` (when given) validates that names resolve to its predicates and
  /// reorders vectors to graph predicate ids.
  static Result<PredicateSpace> Deserialize(std::string_view text,
                                            const KnowledgeGraph* graph);

  /// The underlying block (unit-normalized rows), and the names the kgpack
  /// writer stores beside each row.
  const VectorStore& store() const { return store_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  PredicateSpace() = default;

  VectorStore store_;  // unit-normalized rows
  std::vector<std::string> names_;
};

}  // namespace kgsearch

#endif  // KGSEARCH_EMBEDDING_PREDICATE_SPACE_H_
