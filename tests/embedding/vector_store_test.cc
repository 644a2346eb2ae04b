#include "embedding/vector_store.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/rng.h"

namespace kgsearch {
namespace {

bool IsAligned(const float* p) {
  return reinterpret_cast<uintptr_t>(p) % VectorStore::kAlignment == 0;
}

TEST(VectorStoreTest, EmptyStore) {
  VectorStore store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.dim(), 0u);
  EXPECT_EQ(store.stride(), 0u);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.data(), nullptr);
}

TEST(VectorStoreTest, StridePadsToMultipleOfSixteen) {
  EXPECT_EQ(VectorStore(1, 1).stride(), 16u);
  EXPECT_EQ(VectorStore(1, 7).stride(), 16u);
  EXPECT_EQ(VectorStore(1, 16).stride(), 16u);
  EXPECT_EQ(VectorStore(1, 17).stride(), 32u);
  EXPECT_EQ(VectorStore(1, 64).stride(), 64u);
  EXPECT_EQ(VectorStore(3, 0).stride(), 0u);
}

TEST(VectorStoreTest, BufferAndEveryRowAligned) {
  VectorStore store(5, 17);
  EXPECT_TRUE(IsAligned(store.data()));
  for (size_t i = 0; i < store.size(); ++i) {
    EXPECT_TRUE(IsAligned(store.Row(i))) << "row " << i;
  }
}

TEST(VectorStoreTest, FreshRowsAreZero) {
  VectorStore store(3, 7);
  for (size_t i = 0; i < store.size(); ++i) {
    const float* row = store.Row(i);
    for (size_t j = 0; j < store.stride(); ++j) {
      EXPECT_EQ(row[j], 0.0f) << "row " << i << " slot " << j;
    }
  }
}

TEST(VectorStoreTest, SetRowCopiesAndKeepsPadZero) {
  VectorStore store(2, 7);
  FloatVec v = {1, 2, 3, 4, 5, 6, 7};
  store.SetRow(1, v.data(), v.size());
  const float* row = store.Row(1);
  for (size_t j = 0; j < 7; ++j) EXPECT_EQ(row[j], v[j]);
  for (size_t j = 7; j < store.stride(); ++j) EXPECT_EQ(row[j], 0.0f);
  // Dirty the pad through the mutable accessor, then SetRow must re-zero it.
  store.MutableRow(1)[10] = 42.0f;
  store.SetRow(1, v.data(), v.size());
  EXPECT_EQ(store.Row(1)[10], 0.0f);
  EXPECT_EQ(store.RowVec(1), v);
}

TEST(VectorStoreTest, FromVectorsRoundTrips) {
  FastRng rng(MixSeed(7, 0));
  std::vector<FloatVec> rows;
  for (int i = 0; i < 9; ++i) rows.push_back(RandomUnitVec(13, &rng));
  VectorStore store = VectorStore::FromVectors(rows);
  ASSERT_EQ(store.size(), rows.size());
  ASSERT_EQ(store.dim(), 13u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(store.RowVec(i), rows[i]) << "row " << i;
  }
}

TEST(VectorStoreTest, CopyAndMoveSemantics) {
  FloatVec v = {1, 2, 3};
  VectorStore a(2, 3);
  a.SetRow(0, v.data(), v.size());

  VectorStore b = a;  // copy: independent buffer
  EXPECT_NE(b.data(), a.data());
  EXPECT_EQ(b.RowVec(0), v);
  b.MutableRow(0)[0] = 99.0f;
  EXPECT_EQ(a.Row(0)[0], 1.0f);

  const float* buf = a.data();
  VectorStore c = std::move(a);  // move: steals buffer, empties source
  EXPECT_EQ(c.data(), buf);
  EXPECT_EQ(c.RowVec(0), v);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)

  VectorStore d;
  d = std::move(c);
  EXPECT_EQ(d.data(), buf);
  d = b;  // copy-assign over a populated store
  EXPECT_EQ(d.Row(0)[0], 99.0f);
}

}  // namespace
}  // namespace kgsearch
