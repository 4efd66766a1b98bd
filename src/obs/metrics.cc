#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace qplex::obs {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// Lock-free running maximum via compare-exchange.
void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(kRelaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value, kRelaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double value) {
  double current = target->load(kRelaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value, kRelaxed)) {
  }
}

}  // namespace

void Gauge::InstallFirstValue(double value) {
  // Exactly one writer installs the first value; the rest spin (nanoseconds:
  // the winner's store is the next instruction) until it is visible. A plain
  // first-write race would let the default 0 leak into the reduction — a
  // false minimum for SetMin — so unlike Set() the install must be ordered.
  if (!init_claimed_.exchange(true, std::memory_order_acq_rel)) {
    value_.store(value, kRelaxed);
    has_value_.store(true, std::memory_order_release);
  } else {
    while (!has_value_.load(std::memory_order_acquire)) {
    }
  }
}

void Gauge::SetMin(double value) {
  InstallFirstValue(value);
  AtomicMin(&value_, value);
}

void Gauge::SetMax(double value) {
  InstallFirstValue(value);
  AtomicMax(&value_, value);
}

void Gauge::Reset() {
  value_.store(0, kRelaxed);
  has_value_.store(false, kRelaxed);
  init_claimed_.store(false, kRelaxed);
}

double HistogramSnapshot::Percentile(double p) const {
  if (count <= 0) {
    return 0;
  }
  if (p < 0) {
    p = 0;
  }
  if (p > 1) {
    p = 1;
  }
  const double target = p * static_cast<double>(count);
  double cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto& [lower, bucket_count] = buckets[i];
    const bool last = i + 1 == buckets.size();
    if (cumulative + static_cast<double>(bucket_count) >= target || last) {
      double fraction =
          bucket_count > 0
              ? (target - cumulative) / static_cast<double>(bucket_count)
              : 0;
      if (fraction < 0) {
        fraction = 0;
      }
      if (fraction > 1) {
        fraction = 1;
      }
      const double estimate = lower + fraction * lower;  // upper bound = 2x
      return std::min(std::max(estimate, min), max);
    }
    cumulative += static_cast<double>(bucket_count);
  }
  return max;
}

int Histogram::BucketIndex(double value) {
  if (!(value > 0)) {
    return 0;
  }
  const int exponent = std::ilogb(value);  // floor(log2(value))
  const int index = exponent + 32;
  if (index < 0) {
    return 0;
  }
  if (index >= kNumBuckets) {
    return kNumBuckets - 1;
  }
  return index;
}

double Histogram::BucketLowerBound(int index) {
  return std::ldexp(1.0, index - 32);  // 2^(index-32)
}

void Histogram::Record(double value) {
  buckets_[BucketIndex(value)].fetch_add(1, kRelaxed);
  const std::int64_t previous = count_.fetch_add(1, kRelaxed);
  sum_.fetch_add(value, kRelaxed);
  if (previous == 0) {
    min_.store(value, kRelaxed);
    max_.store(value, kRelaxed);
  }
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.count = count_.load(kRelaxed);
  snapshot.sum = sum_.load(kRelaxed);
  snapshot.min = min_.load(kRelaxed);
  snapshot.max = max_.load(kRelaxed);
  for (int i = 0; i < kNumBuckets; ++i) {
    const std::int64_t bucket_count = buckets_[i].load(kRelaxed);
    if (bucket_count > 0) {
      snapshot.buckets.emplace_back(BucketLowerBound(i), bucket_count);
    }
  }
  return snapshot;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, kRelaxed);
  }
  count_.store(0, kRelaxed);
  sum_.store(0, kRelaxed);
  min_.store(0, kRelaxed);
  max_.store(0, kRelaxed);
}

namespace {

/// Find-or-create into a node-stable map; generic over the metric type.
template <typename T>
T& FindOrCreate(std::map<std::string, std::unique_ptr<T>, std::less<>>* map,
                std::string_view name) {
  auto it = map->find(name);
  if (it == map->end()) {
    it = map->emplace(std::string(name), std::make_unique<T>()).first;
  }
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return FindOrCreate(&counters_, name);
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return FindOrCreate(&gauges_, name);
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return FindOrCreate(&histograms_, name);
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Get());
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Get());
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.emplace_back(name, histogram->Snapshot());
  }
  return snapshot;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace qplex::obs
