#include "embedding/vector_store.h"

#include <cstring>
#include <new>

namespace kgsearch {

namespace {

size_t PaddedStride(size_t dim) {
  if (dim == 0) return 0;
  return (dim + VectorStore::kStrideMultiple - 1) /
         VectorStore::kStrideMultiple * VectorStore::kStrideMultiple;
}

float* AllocateZeroed(size_t floats) {
  if (floats == 0) return nullptr;
  void* p = ::operator new(floats * sizeof(float),
                           std::align_val_t(VectorStore::kAlignment));
  std::memset(p, 0, floats * sizeof(float));
  return static_cast<float*>(p);
}

}  // namespace

void VectorStore::AlignedDeleter::operator()(float* p) const {
  if (p != nullptr) {
    ::operator delete(p, std::align_val_t(VectorStore::kAlignment));
  }
}

VectorStore::VectorStore(size_t count, size_t dim)
    : count_(count), dim_(dim), stride_(PaddedStride(dim)) {
  data_.reset(AllocateZeroed(count_ * stride_));
}

VectorStore VectorStore::FromVectors(const std::vector<FloatVec>& rows) {
  const size_t dim = rows.empty() ? 0 : rows.front().size();
  VectorStore store(rows.size(), dim);
  for (size_t i = 0; i < rows.size(); ++i) {
    KG_CHECK(rows[i].size() == dim);
    store.SetRow(i, rows[i].data(), rows[i].size());
  }
  return store;
}

VectorStore::VectorStore(const VectorStore& other)
    : count_(other.count_), dim_(other.dim_), stride_(other.stride_) {
  const size_t floats = count_ * stride_;
  data_.reset(AllocateZeroed(floats));
  if (floats > 0) {
    std::memcpy(data_.get(), other.data_.get(), floats * sizeof(float));
  }
}

VectorStore& VectorStore::operator=(const VectorStore& other) {
  if (this != &other) *this = VectorStore(other);
  return *this;
}

VectorStore::VectorStore(VectorStore&& other) noexcept
    : count_(other.count_),
      dim_(other.dim_),
      stride_(other.stride_),
      data_(std::move(other.data_)) {
  other.count_ = other.dim_ = other.stride_ = 0;
}

VectorStore& VectorStore::operator=(VectorStore&& other) noexcept {
  if (this != &other) {
    count_ = other.count_;
    dim_ = other.dim_;
    stride_ = other.stride_;
    data_ = std::move(other.data_);
    other.count_ = other.dim_ = other.stride_ = 0;
  }
  return *this;
}

void VectorStore::SetRow(size_t i, const float* src, size_t n) {
  KG_CHECK(i < count_ && n == dim_);
  if (n == 0) return;
  float* row = data_.get() + i * stride_;
  std::memcpy(row, src, n * sizeof(float));
  if (stride_ > n) {
    std::memset(row + n, 0, (stride_ - n) * sizeof(float));
  }
}

FloatVec VectorStore::RowVec(size_t i) const {
  const float* row = Row(i);
  return FloatVec(row, row + dim_);
}

}  // namespace kgsearch
