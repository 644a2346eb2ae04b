// Pins the benchmark's own arithmetic: the percentile rule, recall, span
// self time, and the stage-sum residual. Exits non-zero on any failure.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "arith.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "arith_test.cc:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestNearestRank() {
  using perfbench::NearestRank;
  // 1..10 shuffled: rank ceil(q·n).
  const std::vector<double> v = {7, 3, 10, 1, 5, 9, 2, 8, 6, 4};
  EXPECT(NearestRank(v, 0.5)->value == 5);   // rank 5
  EXPECT(NearestRank(v, 0.95)->value == 10);  // rank ceil(9.5) = 10
  EXPECT(NearestRank(v, 0.9)->value == 9);    // rank 9
  EXPECT(NearestRank(v, 0.91)->value == 10);  // rank ceil(9.1) = 10
  EXPECT(NearestRank(v, 1.0)->value == 10);
  EXPECT(NearestRank(v, 0.01)->value == 1);   // rank clamps to 1
  EXPECT(NearestRank(v, 0.9)->beyond == 1);
  EXPECT(NearestRank(v, 0.5)->samples == 10);
  EXPECT(!NearestRank({}, 0.5));
  EXPECT(!NearestRank(v, 0.0));
  EXPECT(!NearestRank(v, 1.5));
  // Median of an even count is the lower middle sample.
  EXPECT(perfbench::Median({4, 1, 3, 2}) == 2);
  EXPECT(perfbench::Median({}) == 0);
}

void TestTailRule() {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  // n = 200: p95 is rank 190, with exactly 10 samples beyond it.
  const auto p95 = perfbench::TailPercentile(v, 0.95);
  EXPECT(p95 && p95->value == 190 && p95->beyond == 10);
  v.pop_back();  // n = 199: rank ceil(189.05) = 190, 9 beyond
  EXPECT(!perfbench::TailPercentile(v, 0.95));
  EXPECT(perfbench::TailPercentile(v, 0.95, 9).has_value());
}

void TestRecall() {
  perfbench::RecallTally tally;
  EXPECT(!tally.value());
  tally.Add({1, 2, 3}, {1, 2, 4, 5});  // 2 of 4
  tally.Add({9}, {});                  // unanswerable: ignored
  tally.Add({7, 8}, {8, 7});           // 2 of 2, order irrelevant
  EXPECT(tally.found() == 4 && tally.expected() == 6);
  EXPECT(tally.requests() == 2);
  EXPECT(Near(*tally.value(), 4.0 / 6.0));
  perfbench::RecallTally duplicates;
  duplicates.Add({5, 5}, {5});  // a repeated answer counts once
  EXPECT(Near(*duplicates.value(), 1.0));
}

void TestSelfTime() {
  using perfbench::Span;
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},    // overlaps a: union [10, 50) = 40
      {"c", 90, 120, 0, 1},   // runs past the parent: only [90, 100) counts
      {"a.1", 12, 18, 1, 1},  // a grandchild does not cover the root
      {"other", 0, 100, -1, 2},
  };
  EXPECT(perfbench::SelfTimeNs(spans, 0) == 100 - 40 - 10);
  EXPECT(perfbench::SelfTimeNs(spans, 1) == 20 - 6);
  EXPECT(perfbench::SelfTimeNs(spans, 4) == 6);   // a leaf: its duration
  EXPECT(perfbench::SelfTimeNs(spans, 5) == 100);  // no children
  // Children exactly tiling the parent leave no self time.
  std::vector<Span> tiled = {
      {"p", 0, 10, -1, 1}, {"x", 0, 4, 0, 1}, {"y", 4, 10, 0, 1}};
  EXPECT(perfbench::SelfTimeNs(tiled, 0) == 0);
}

void TestReconcile() {
  const perfbench::StageSum s = perfbench::Reconcile(10.0, {1.0, 2.5, 6.0});
  EXPECT(Near(s.sum_ms, 9.5));
  EXPECT(Near(s.residual_ms, 0.5));
  EXPECT(Near(s.residual_share, 0.05));
  // Self times may be negative (a replayed inner call ran slower); the
  // residual still closes the sum.
  const perfbench::StageSum t = perfbench::Reconcile(4.0, {5.0, -0.5});
  EXPECT(Near(t.residual_ms, -0.5));
  EXPECT(perfbench::Reconcile(0.0, {}).residual_share == 0.0);
}

}  // namespace

int main() {
  TestNearestRank();
  TestTailRule();
  TestRecall();
  TestSelfTime();
  TestReconcile();
  if (failures == 0) std::printf("perfbench_arith_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
