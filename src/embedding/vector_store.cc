#include "embedding/vector_store.h"

#include <algorithm>

namespace kgsearch {

VectorStore::VectorStore(size_t count, size_t dim)
    : count_(count), dim_(dim), data_(count * dim, 0.0f) {}

VectorStore VectorStore::FromVectors(const std::vector<FloatVec>& rows) {
  const size_t dim = rows.empty() ? 0 : rows.front().size();
  VectorStore store(rows.size(), dim);
  for (size_t i = 0; i < rows.size(); ++i) {
    KG_CHECK(rows[i].size() == dim);
    store.SetRow(i, rows[i].data(), rows[i].size());
  }
  return store;
}

void VectorStore::SetRow(size_t i, const float* src, size_t n) {
  KG_CHECK(i < count_ && n == dim_);
  std::copy(src, src + n, data_.begin() + i * dim_);
}

FloatVec VectorStore::RowVec(size_t i) const {
  const float* row = Row(i);
  return FloatVec(row, row + dim_);
}

}  // namespace kgsearch
