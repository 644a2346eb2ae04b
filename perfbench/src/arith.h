// The benchmark's own arithmetic: percentiles with the tail rule, recall
// against an exact reference, span self time, and the stage-sum residual.
// Kept free of any kgsearch type so perfbench_arith_test pins it exactly.
#ifndef PERFBENCH_ARITH_H_
#define PERFBENCH_ARITH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `values` (unsorted; copied): the smallest
/// sample with at least q·n samples at or below it, i.e. the sample of
/// 1-based rank ceil(q·n). q in (0, 1]. `beyond` counts the samples ranked
/// above it.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};
std::optional<Percentile> NearestRank(std::vector<double> values, double q);

/// The median by the same rule (rank ceil(n/2)); 0 for no samples.
double Median(std::vector<double> values);

/// A tail percentile is reported only when at least `min_beyond` samples lie
/// beyond it, so the tail value rests on more than a handful of requests;
/// otherwise nullopt.
std::optional<Percentile> TailPercentile(std::vector<double> values, double q,
                                         size_t min_beyond = 10);

/// Recall of approximate answers against exact ones, summed over requests:
/// (Σ |answers ∩ reference|) / (Σ |reference|). Requests whose reference is
/// empty are unanswerable and add nothing.
class RecallTally {
 public:
  void Add(const std::vector<uint32_t>& answers,
           const std::vector<uint32_t>& reference);
  size_t found() const { return found_; }
  size_t expected() const { return expected_; }
  size_t requests() const { return requests_; }
  /// nullopt while no answerable request was added.
  std::optional<double> value() const;

 private:
  size_t found_ = 0;
  size_t expected_ = 0;
  size_t requests_ = 0;
};

/// One timed interval of a request. `parent` indexes the enclosing span in
/// the same vector (-1 for a root); children lie inside their parent.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t request = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// A span's self time: its duration minus the part of its interval that the
/// union of its direct children covers (overlapping children count once,
/// parts outside the parent not at all).
int64_t SelfTimeNs(const std::vector<Span>& spans, size_t index);

/// Stage-sum reconciliation of one request: the layers' self times should
/// add up to the wire call. residual = wire − Σ self; share = residual/wire.
struct StageSum {
  double wire_ms = 0.0;
  double sum_ms = 0.0;
  double residual_ms = 0.0;
  double residual_share = 0.0;
};
StageSum Reconcile(double wire_ms, const std::vector<double>& self_ms);

}  // namespace perfbench

#endif  // PERFBENCH_ARITH_H_
