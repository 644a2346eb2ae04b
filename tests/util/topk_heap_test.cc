#include "util/topk_heap.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.h"

namespace kgsearch {
namespace {

TEST(TopKHeapTest, KeepsBestK) {
  TopKHeap<int> heap(3);
  for (int i = 0; i < 10; ++i) heap.Push(static_cast<double>(i), i);
  auto out = heap.TakeSortedDescending();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].second, 9);
  EXPECT_EQ(out[1].second, 8);
  EXPECT_EQ(out[2].second, 7);
}

TEST(TopKHeapTest, FewerThanKKept) {
  TopKHeap<int> heap(5);
  heap.Push(1.0, 1);
  heap.Push(2.0, 2);
  auto out = heap.TakeSortedDescending();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].second, 2);
}

TEST(TopKHeapTest, ZeroCapacityKeepsNothing) {
  TopKHeap<int> heap(0);
  heap.Push(1.0, 1);
  EXPECT_TRUE(heap.empty());
  EXPECT_TRUE(heap.TakeSortedDescending().empty());
}

TEST(TopKHeapTest, TieBrokenByInsertionOrder) {
  TopKHeap<std::string> heap(2);
  heap.Push(1.0, "first");
  heap.Push(1.0, "second");
  heap.Push(1.0, "third");  // rejected: same score, later arrival
  auto out = heap.TakeSortedDescending();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].second, "first");
  EXPECT_EQ(out[1].second, "second");
}

TEST(TopKHeapTest, ZeroCapacityRejectsEverythingAndStaysConsistent) {
  TopKHeap<int> heap(0);
  EXPECT_EQ(heap.capacity(), 0u);
  heap.Push(1e9, 42);
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_TRUE(heap.TakeSortedDescending().empty());
}

TEST(TopKHeapTest, DuplicateScoresAtBoundaryEvictStrictlyWorseOnly) {
  TopKHeap<int> heap(3);
  heap.Push(1.0, 0);
  heap.Push(2.0, 1);
  heap.Push(2.0, 2);
  // 2.0 beats the 1.0 at the boundary and evicts it...
  heap.Push(2.0, 3);
  // ...but once the heap is all-2.0, further 2.0s lose to incumbents.
  heap.Push(2.0, 4);
  auto out = heap.TakeSortedDescending();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].second, 1);
  EXPECT_EQ(out[1].second, 2);
  EXPECT_EQ(out[2].second, 3);
  for (const auto& [score, item] : out) EXPECT_DOUBLE_EQ(score, 2.0);
}

class TopKHeapSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(TopKHeapSweep, MatchesSortReference) {
  const size_t k = GetParam();
  Rng rng(k * 7919 + 1);
  std::vector<double> scores;
  TopKHeap<size_t> heap(k);
  for (size_t i = 0; i < 500; ++i) {
    double s = rng.UniformReal();
    scores.push_back(s);
    heap.Push(s, i);
  }
  std::vector<double> sorted = scores;
  std::sort(sorted.rbegin(), sorted.rend());
  auto out = heap.TakeSortedDescending();
  ASSERT_EQ(out.size(), std::min(k, scores.size()));
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i].first, sorted[i]) << "rank " << i;
    EXPECT_DOUBLE_EQ(out[i].first, scores[out[i].second]);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, TopKHeapSweep,
                         ::testing::Values(1, 2, 5, 16, 100, 499, 500, 1000));

}  // namespace
}  // namespace kgsearch
