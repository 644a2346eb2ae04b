// Bounded top-k heap keeping the k largest items by score.
#ifndef KGSEARCH_UTIL_TOPK_HEAP_H_
#define KGSEARCH_UTIL_TOPK_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace kgsearch {

/// Keeps the k items with the largest scores seen so far.
///
/// Push is O(log k), and TakeSortedDescending is the only read: it returns
/// the retained items in descending score order. Ties are broken by
/// insertion order (earlier insertions win), which keeps top-k results
/// deterministic across runs.
template <typename T>
class TopKHeap {
 public:
  explicit TopKHeap(size_t k) : k_(k) {}

  /// Offers an item; keeps it only if it is among the k best so far.
  void Push(double score, T item) {
    if (k_ == 0) return;
    Entry e{score, counter_++, std::move(item)};
    if (heap_.size() < k_) {
      heap_.push_back(std::move(e));
      std::push_heap(heap_.begin(), heap_.end(), MinFirst);
      return;
    }
    if (Better(e, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), MinFirst);
      heap_.back() = std::move(e);
      std::push_heap(heap_.begin(), heap_.end(), MinFirst);
    }
  }

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }
  size_t capacity() const { return k_; }

  /// Extracts all retained items in descending score order. Clears the heap.
  std::vector<std::pair<double, T>> TakeSortedDescending() {
    std::sort(heap_.begin(), heap_.end(),
              [](const Entry& a, const Entry& b) { return Better(a, b); });
    std::vector<std::pair<double, T>> out;
    out.reserve(heap_.size());
    for (auto& e : heap_) out.emplace_back(e.score, std::move(e.item));
    heap_.clear();
    return out;
  }

 private:
  struct Entry {
    double score;
    uint64_t seq;
    T item;
  };

  /// True when a ranks strictly better than b.
  static bool Better(const Entry& a, const Entry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.seq < b.seq;
  }
  /// Heap comparator putting the worst entry at front.
  static bool MinFirst(const Entry& a, const Entry& b) { return Better(a, b); }

  size_t k_;
  uint64_t counter_ = 0;
  std::vector<Entry> heap_;
};

}  // namespace kgsearch

#endif  // KGSEARCH_UTIL_TOPK_HEAP_H_
