#include "embedding/vector_store.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace kgsearch {
namespace {

TEST(VectorStoreTest, EmptyStore) {
  VectorStore store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.dim(), 0u);
  EXPECT_TRUE(store.empty());
}

TEST(VectorStoreTest, FreshRowsAreZero) {
  VectorStore store(3, 7);
  for (size_t i = 0; i < store.size(); ++i) {
    const float* row = store.Row(i);
    for (size_t j = 0; j < store.dim(); ++j) {
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

  VectorStore b = a;  // copy: independent rows
  EXPECT_EQ(b.RowVec(0), v);
  FloatVec w = {99, 2, 3};
  b.SetRow(0, w.data(), w.size());
  EXPECT_EQ(a.Row(0)[0], 1.0f);

  VectorStore c = std::move(a);
  EXPECT_EQ(c.RowVec(0), v);

  VectorStore d;
  d = std::move(c);
  EXPECT_EQ(d.RowVec(0), v);
  d = b;  // copy-assign over a populated store
  EXPECT_EQ(d.Row(0)[0], 99.0f);
}

}  // namespace
}  // namespace kgsearch
