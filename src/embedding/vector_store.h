// Contiguous embedding storage.
//
// A VectorStore holds `size()` embedding rows of dimensionality `dim()`
// back to back in one flat float vector: row i is the `dim()` floats
// starting at i * dim(). Copy and move are the defaults; a moved-from
// store may only be assigned to or destroyed.
//
// PredicateSpace keeps its vectors here, and the kgpack reader streams
// rows straight into the store; the per-row std::vector<float> form
// survives only at API boundaries (construction, serialization).
#ifndef KGSEARCH_EMBEDDING_VECTOR_STORE_H_
#define KGSEARCH_EMBEDDING_VECTOR_STORE_H_

#include <cstddef>
#include <vector>

#include "embedding/vector_math.h"
#include "util/status.h"

namespace kgsearch {

class VectorStore {
 public:
  /// Empty store (size 0, dim 0).
  VectorStore() = default;

  /// `count` zero-filled rows of dimension `dim`.
  VectorStore(size_t count, size_t dim);

  /// Copies `rows` (all must share one dimension) into a fresh store.
  static VectorStore FromVectors(const std::vector<FloatVec>& rows);

  size_t size() const { return count_; }
  size_t dim() const { return dim_; }
  bool empty() const { return count_ == 0; }

  const float* Row(size_t i) const {
    KG_CHECK(i < count_);
    return data_.data() + i * dim_;
  }

  /// Overwrites row i with `n` floats (n must equal dim()).
  void SetRow(size_t i, const float* src, size_t n);

  /// Copy of row i.
  FloatVec RowVec(size_t i) const;

 private:
  size_t count_ = 0;
  size_t dim_ = 0;
  std::vector<float> data_;
};

}  // namespace kgsearch

#endif  // KGSEARCH_EMBEDDING_VECTOR_STORE_H_
