// Serving-layer observability: lock-free latency histogram and the
// aggregate counter snapshot exposed by QueryService::Stats().
//
// Thread-safety: LatencyHistogram is all relaxed atomics — recording on
// the query hot path must never contend on a Mutex, so there is nothing
// here for the thread-safety analysis to guard. The price is advisory
// reads: Percentile/count/max are each internally consistent but a
// concurrent Record may land between them. ServiceStatsSnapshot is a plain
// value: one thread fills it, then it is data. Fields that must be read
// together under a lock live behind StatsRateTracker (server/stats.h).
#ifndef KGSEARCH_SERVICE_SERVICE_STATS_H_
#define KGSEARCH_SERVICE_SERVICE_STATS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>

namespace kgsearch {

/// Geometric-bucket latency histogram (16 buckets per decade, 1us..~100s).
/// Record and Percentile are safe to call concurrently; percentiles are
/// approximate to within one bucket width (~15%).
class LatencyHistogram {
 public:
  static constexpr size_t kBucketsPerDecade = 16;
  static constexpr size_t kNumBuckets = kBucketsPerDecade * 8;  // 8 decades

  void RecordMicros(int64_t micros) {
    buckets_[BucketOf(micros)].fetch_add(1, std::memory_order_relaxed);
    int64_t prev = max_micros_.load(std::memory_order_relaxed);
    while (micros > prev && !max_micros_.compare_exchange_weak(
                                prev, micros, std::memory_order_relaxed)) {
    }
  }

  /// The q-quantile (q in [0,1]) in microseconds, as the geometric center
  /// of the bucket holding it, clamped to the true observed maximum — the
  /// raw bucket center can land above every recorded sample (e.g. a single
  /// 1000us sample sits in the bucket centered at ~1154us), and no
  /// percentile may exceed the max. 0 when nothing was recorded.
  [[nodiscard]] double PercentileMicros(double q) const {
    uint64_t total = 0;
    std::array<uint64_t, kNumBuckets> counts;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      counts[i] = buckets_[i].load(std::memory_order_relaxed);
      total += counts[i];
    }
    if (total == 0) return 0.0;
    const double max = static_cast<double>(max_micros());
    const uint64_t rank =
        static_cast<uint64_t>(q * static_cast<double>(total - 1));
    uint64_t seen = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      seen += counts[i];
      if (seen > rank) return std::min(BucketCenterMicros(i), max);
    }
    return std::min(BucketCenterMicros(kNumBuckets - 1), max);
  }

  [[nodiscard]] uint64_t count() const {
    uint64_t total = 0;
    for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
    return total;
  }
  [[nodiscard]] int64_t max_micros() const {
    return max_micros_.load(std::memory_order_relaxed);
  }

 private:
  static size_t BucketOf(int64_t micros) {
    if (micros <= 1) return 0;
    const double idx =
        std::log10(static_cast<double>(micros)) * kBucketsPerDecade;
    const size_t b = static_cast<size_t>(idx);
    return b >= kNumBuckets ? kNumBuckets - 1 : b;
  }
  static double BucketCenterMicros(size_t bucket) {
    return std::pow(10.0, (static_cast<double>(bucket) + 0.5) /
                              kBucketsPerDecade);
  }

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> max_micros_{0};
};

/// Point-in-time view of a QueryService's counters.
struct ServiceStatsSnapshot {
  /// Identity of the QueryService instance that produced this snapshot
  /// (process-unique, assigned at service construction, never 0 for a real
  /// snapshot). A blue-green dataset swap (api/session.h) installs a FRESH
  /// service under the same dataset name, so two snapshots read under one
  /// name may come from different services; their counters are then
  /// incomparable, and IntervalQps detects that via this field instead of
  /// reporting a bogus 0 (the old behavior: the new service's small uptime
  /// made the window length negative).
  uint64_t generation = 0;

  uint64_t queries_total = 0;   ///< completed queries (SGQ + TBQ)
  uint64_t queries_failed = 0;  ///< completed with a non-OK status
  uint64_t sgq_queries = 0;
  uint64_t tbq_queries = 0;

  /// Requests turned away by admission control (kResourceExhausted). They
  /// never executed, so they are NOT part of queries_total/queries_failed.
  uint64_t queries_rejected = 0;
  /// Completed with kCancelled (also counted in queries_failed).
  uint64_t queries_cancelled = 0;
  /// Completed with kDeadlineExceeded (also counted in queries_failed).
  uint64_t queries_deadline_exceeded = 0;

  uint64_t decomposition_cache_hits = 0;
  uint64_t decomposition_cache_misses = 0;
  uint64_t matcher_cache_hits = 0;
  uint64_t matcher_cache_misses = 0;
  /// Matcher-cache lookups that found an entry stamped with a different
  /// graph epoch (live ingest moved the graph on); recomputed, not served.
  /// Also counted in matcher_cache_hits — subtract for true hits.
  uint64_t matcher_cache_stale_hits = 0;

  size_t in_flight = 0;    ///< queries currently executing
  /// Admitted requests not yet executing (admitted_outstanding − in_flight,
  /// floored at 0): in a KgSession, this dataset's submissions waiting for
  /// a pool worker. Always per-dataset, even when many share one executor.
  size_t queue_depth = 0;
  /// Tasks waiting in the executor the service runs on. With an external
  /// shared pool this is a pool-wide gauge (other services' queries and
  /// sub-query batches included) — a load signal, not a per-service count.
  size_t executor_queue_depth = 0;
  /// Admitted requests not yet finished (executing or queued); bounded by
  /// max_in_flight + max_queued when admission control is on.
  size_t admitted_outstanding = 0;

  double uptime_seconds = 0.0;
  /// CUMULATIVE average: queries_total / uptime over the service's whole
  /// lifetime. On a long-lived server this decays toward the long-run mean
  /// and stops tracking current load — for "qps right now", diff two
  /// snapshots with IntervalQps (the /stats endpoint reports both, as
  /// "qps_lifetime" and "qps_interval").
  double qps = 0.0;

  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_max_ms = 0.0;

  double decomposition_cache_hit_rate() const {
    const uint64_t n = decomposition_cache_hits + decomposition_cache_misses;
    return n == 0 ? 0.0
                  : static_cast<double>(decomposition_cache_hits) /
                        static_cast<double>(n);
  }
  double matcher_cache_hit_rate() const {
    const uint64_t n = matcher_cache_hits + matcher_cache_misses;
    return n == 0 ? 0.0
                  : static_cast<double>(matcher_cache_hits) /
                        static_cast<double>(n);
  }
};

/// Completion rate between two successive snapshots of the SAME service:
/// queries completed in the window divided by the window length. This is
/// the "current load" figure; ServiceStatsSnapshot::qps is the lifetime
/// average.
///
/// When the two snapshots come from different service generations — the
/// first read ever (default-constructed `prev`, generation 0), or a read
/// straddling a blue-green dataset swap/compaction, which replaces the
/// QueryService behind the name — the counters are incomparable and the
/// function degenerates to the NEW service's lifetime average (its whole
/// life fits inside the window, so that IS the window rate). Within one
/// generation, 0 when the window is empty or not advancing (counters are
/// monotone, so a negative delta means mismatched snapshots).
inline double IntervalQps(const ServiceStatsSnapshot& prev,
                          const ServiceStatsSnapshot& curr) {
  if (prev.generation != curr.generation) return curr.qps;
  const double dt = curr.uptime_seconds - prev.uptime_seconds;
  if (dt <= 0.0 || curr.queries_total < prev.queries_total) return 0.0;
  return static_cast<double>(curr.queries_total - prev.queries_total) / dt;
}

}  // namespace kgsearch

#endif  // KGSEARCH_SERVICE_SERVICE_STATS_H_
