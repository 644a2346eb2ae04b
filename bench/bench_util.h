// Helpers shared by the bench_* executables.
#ifndef KGSEARCH_BENCH_BENCH_UTIL_H_
#define KGSEARCH_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <vector>

namespace kgsearch {

/// The q-quantile of `values` at the nearest lower rank; sorts `values` in
/// place. 0 for an empty sample.
inline double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t rank =
      static_cast<size_t>(q * static_cast<double>(values->size() - 1));
  return (*values)[rank];
}

}  // namespace kgsearch

#endif  // KGSEARCH_BENCH_BENCH_UTIL_H_
