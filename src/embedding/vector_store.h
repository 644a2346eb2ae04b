// Contiguous embedding storage.
//
// A VectorStore holds `size()` embedding rows of logical dimensionality
// `dim()` in ONE aligned flat float buffer. Rows are padded with zeros to
// `stride()` floats (a multiple of kStrideMultiple), so every row starts on
// a kAlignment-byte boundary. SetRow re-zeroes the pad, keeping it zero
// through mutation.
//
// PredicateSpace keeps its vectors here, and the kgpack reader streams
// rows straight into the buffer; the per-row std::vector<float> form
// survives only at API boundaries (construction, serialization).
#ifndef KGSEARCH_EMBEDDING_VECTOR_STORE_H_
#define KGSEARCH_EMBEDDING_VECTOR_STORE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "embedding/vector_math.h"
#include "util/status.h"

namespace kgsearch {

class VectorStore {
 public:
  /// Byte alignment of the buffer and (via stride padding) of every row.
  static constexpr size_t kAlignment = 64;
  /// Rows are padded to a multiple of this many floats; 16 floats * 4 bytes
  /// = one 64-byte cache line.
  static constexpr size_t kStrideMultiple = 16;

  /// Empty store (size 0, dim 0).
  VectorStore() = default;

  /// `count` zero-filled rows of logical dimension `dim`.
  VectorStore(size_t count, size_t dim);

  /// Copies `rows` (all must share one dimension) into a fresh store.
  static VectorStore FromVectors(const std::vector<FloatVec>& rows);

  VectorStore(const VectorStore& other);
  VectorStore& operator=(const VectorStore& other);
  VectorStore(VectorStore&& other) noexcept;
  VectorStore& operator=(VectorStore&& other) noexcept;

  size_t size() const { return count_; }
  size_t dim() const { return dim_; }
  /// Padded row width in floats; row i starts at data() + i * stride().
  size_t stride() const { return stride_; }
  bool empty() const { return count_ == 0; }

  const float* data() const { return data_.get(); }
  const float* Row(size_t i) const {
    KG_CHECK(i < count_);
    return data_.get() + i * stride_;
  }
  float* MutableRow(size_t i) {
    KG_CHECK(i < count_);
    return data_.get() + i * stride_;
  }

  /// Overwrites row i with `n` floats (n must equal dim()); the pad stays
  /// zero.
  void SetRow(size_t i, const float* src, size_t n);

  /// Copy of row i at logical dimension (pad stripped).
  FloatVec RowVec(size_t i) const;

 private:
  struct AlignedDeleter {
    void operator()(float* p) const;
  };

  size_t count_ = 0;
  size_t dim_ = 0;
  size_t stride_ = 0;
  std::unique_ptr<float[], AlignedDeleter> data_;
};

}  // namespace kgsearch

#endif  // KGSEARCH_EMBEDDING_VECTOR_STORE_H_
