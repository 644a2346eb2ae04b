#include "arith.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

namespace perfbench {

std::optional<Percentile> NearestRank(std::vector<double> values, double q) {
  if (values.empty() || !(q > 0.0) || q > 1.0) return std::nullopt;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return Percentile{values[rank - 1], n, n - rank};
}

double Median(std::vector<double> values) {
  const std::optional<Percentile> p = NearestRank(std::move(values), 0.5);
  return p ? p->value : 0.0;
}

std::optional<Percentile> TailPercentile(std::vector<double> values, double q,
                                         size_t min_beyond) {
  std::optional<Percentile> p = NearestRank(std::move(values), q);
  if (!p || p->beyond < min_beyond) return std::nullopt;
  return p;
}

void RecallTally::Add(const std::vector<uint32_t>& answers,
                      const std::vector<uint32_t>& reference) {
  if (reference.empty()) return;
  const std::unordered_set<uint32_t> got(answers.begin(), answers.end());
  for (uint32_t id : reference) found_ += got.count(id);
  expected_ += reference.size();
  ++requests_;
}

std::optional<double> RecallTally::value() const {
  if (expected_ == 0) return std::nullopt;
  return static_cast<double>(found_) / static_cast<double>(expected_);
}

int64_t SelfTimeNs(const std::vector<Span>& spans, size_t index) {
  const Span& self = spans[index];
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span& s : spans) {
    if (s.parent != static_cast<int>(index)) continue;
    const int64_t lo = std::max(s.start_ns, self.start_ns);
    const int64_t hi = std::min(s.end_ns, self.end_ns);
    if (lo < hi) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t reach = self.start_ns;
  for (const auto& [lo, hi] : covered) {
    const int64_t from = std::max(lo, reach);
    if (hi > from) union_ns += hi - from;
    reach = std::max(reach, hi);
  }
  return self.duration_ns() - union_ns;
}

StageSum Reconcile(double wire_ms, const std::vector<double>& self_ms) {
  StageSum s;
  s.wire_ms = wire_ms;
  for (double v : self_ms) s.sum_ms += v;
  s.residual_ms = wire_ms - s.sum_ms;
  s.residual_share = wire_ms != 0.0 ? s.residual_ms / wire_ms : 0.0;
  return s;
}

}  // namespace perfbench
