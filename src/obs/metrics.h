#ifndef QPLEX_OBS_METRICS_H_
#define QPLEX_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace qplex::obs {

/// Monotonically increasing 64-bit counter. All mutation is a single relaxed
/// atomic add, so solver hot paths (and parallel-tempering style threads) can
/// record without locks; readers see totals that are exact once the writers
/// quiesce.
class Counter {
 public:
  void Add(std::int64_t delta) { value_.fetch_add(delta, kOrder); }
  void Increment() { Add(1); }
  std::int64_t Get() const { return value_.load(kOrder); }
  void Reset() { value_.store(0, kOrder); }

 private:
  static constexpr auto kOrder = std::memory_order_relaxed;
  std::atomic<std::int64_t> value_{0};
};

/// Last-written double value.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  /// Ordered reductions: keep the smallest / largest value ever set. Unlike
  /// Set(), the final value is independent of writer interleaving, so
  /// concurrently finishing jobs (portfolio racers, batch workers) can all
  /// publish their best-energy / best-size result and the gauge stays
  /// deterministic for the bench gate.
  void SetMin(double value);
  void SetMax(double value);
  double Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  /// Installs `value` as the first observation exactly once (Set/SetMin/SetMax
  /// must not mix on one gauge within a run — the reduction semantics differ).
  void InstallFirstValue(double value);

  std::atomic<double> value_{0};
  std::atomic<bool> has_value_{false};
  std::atomic<bool> init_claimed_{false};
};

/// Immutable view of a histogram taken by Snapshot().
struct HistogramSnapshot {
  std::int64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  /// Non-empty log-scale buckets as (inclusive lower bound, count). Bucket i
  /// covers [2^(i-32), 2^(i-31)); values <= 0 land in the first bucket.
  std::vector<std::pair<double, std::int64_t>> buckets;

  double Mean() const { return count > 0 ? sum / count : 0; }

  /// Estimated value at quantile `p` in [0, 1], linearly interpolated inside
  /// the covering log bucket and clamped to [min, max]. Accurate to the ~2x
  /// bucket resolution — good enough to compare distribution tails between
  /// runs (benchdiff), not a substitute for exact order statistics.
  double Percentile(double p) const;
  double P50() const { return Percentile(0.50); }
  double P90() const { return Percentile(0.90); }
  double P99() const { return Percentile(0.99); }
};

/// Lock-free log-scale histogram: values are bucketed by binary exponent
/// (64 power-of-two buckets spanning [2^-32, 2^32)), which covers iteration
/// counts, gate costs and probabilities alike with ~2x resolution.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  void Record(double value);
  std::int64_t Count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  HistogramSnapshot Snapshot() const;
  void Reset();

  /// Bucket index for `value` (exposed for tests).
  static int BucketIndex(double value);
  /// Inclusive lower bound of bucket `index`.
  static double BucketLowerBound(int index);

 private:
  std::atomic<std::int64_t> buckets_[kNumBuckets] = {};
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> min_{0};
  std::atomic<double> max_{0};
};

/// Name-addressed snapshot of a whole registry, ordered by metric name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Owns named metrics. Lookup takes a mutex (callers are expected to look up
/// once per solver call or cache the returned reference); recording on the
/// returned objects is lock-free. References stay valid for the registry's
/// lifetime — Reset() zeroes values without destroying metric objects.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Zeroes every metric (references handed out remain valid).
  void Reset();

  MetricsSnapshot Snapshot() const;

  /// The process-wide registry every built-in instrumentation site records
  /// into. Run reports snapshot it; the CLI resets it before solving.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace qplex::obs

#endif  // QPLEX_OBS_METRICS_H_
