#include "obs/metrics.h"

#include <algorithm>

namespace astream::obs {

int Histogram::BucketIndex(int64_t value) {
  if (value <= 0) return 0;
  // floor(log2(value)) + 1 clamped into the overflow bucket: value 1 ->
  // bucket 1 ([1,2)), value 2..3 -> bucket 2 ([2,4)), ...
  const int log2 = 63 - __builtin_clzll(static_cast<uint64_t>(value));
  return std::min(log2 + 1, kNumBuckets - 1);
}

int64_t Histogram::BucketLowerBound(int index) {
  if (index <= 0) return 0;
  return int64_t{1} << (index - 1);
}

int64_t Histogram::BucketUpperBound(int index) {
  if (index <= 0) return 1;
  if (index >= kNumBuckets - 1) return INT64_MAX;
  return int64_t{1} << index;
}

void Histogram::Record(int64_t value, int64_t count) {
  buckets_[BucketIndex(value)].fetch_add(count, std::memory_order_relaxed);
  count_.fetch_add(count, std::memory_order_relaxed);
  sum_.fetch_add(value * count, std::memory_order_relaxed);
  // min/max via CAS: contended only while a new extreme is being set,
  // which stops happening once the distribution's tails are seen.
  int64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  if (s.count > 0) {
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
  }
  for (int i = 0; i < kNumBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

double Histogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Target rank in [0, count-1]; walk buckets to the one containing it and
  // interpolate linearly inside the bucket's value range.
  const double rank = p / 100.0 * static_cast<double>(count - 1);
  int64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (rank < static_cast<double>(seen + buckets[b])) {
      const double frac =
          buckets[b] == 1
              ? 0.0
              : (rank - static_cast<double>(seen)) /
                    static_cast<double>(buckets[b] - 1);
      const double lo = static_cast<double>(BucketLowerBound(b));
      // The overflow bucket has no finite upper edge; interpolate toward
      // the observed max instead.
      const double hi =
          b >= kNumBuckets - 1
              ? static_cast<double>(max)
              : static_cast<double>(BucketUpperBound(b) - 1);
      const double v = lo + frac * std::max(0.0, hi - lo);
      return std::clamp(v, static_cast<double>(min),
                        static_cast<double>(max));
    }
    seen += buckets[b];
  }
  return static_cast<double>(max);
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

QuerySeries* MetricsRegistry::SeriesFor(int64_t query_id) {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = series_[query_id];
  if (slot == nullptr) slot = std::make_unique<QuerySeries>();
  return slot.get();
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) {
    s.histograms[name] = h->TakeSnapshot();
  }
  for (const auto& [id, q] : series_) {
    QuerySeriesSnapshot qs;
    qs.records_emitted = q->records_emitted.Value();
    qs.late_drops = q->late_drops.Value();
    qs.slices_reused = q->slices_reused.Value();
    qs.slices_computed = q->slices_computed.Value();
    qs.cost_rows = q->cost_rows.Value();
    qs.cost_cpu_nanos = q->cost_cpu_nanos.Value();
    qs.cost_state_bytes = q->cost_state_bytes.Value();
    qs.event_latency_ms = q->event_latency_ms.TakeSnapshot();
    qs.deploy_latency_ms = q->deploy_latency_ms.TakeSnapshot();
    s.queries[id] = std::move(qs);
  }
  return s;
}

void MergeInto(Histogram::Snapshot* into, const Histogram::Snapshot& from) {
  if (from.count == 0) return;
  if (into->count == 0) {
    *into = from;
    return;
  }
  into->count += from.count;
  into->sum += from.sum;
  into->min = std::min(into->min, from.min);
  into->max = std::max(into->max, from.max);
  for (size_t i = 0; i < into->buckets.size(); ++i) {
    into->buckets[i] += from.buckets[i];
  }
}

namespace {

/// Fill-fraction gauges: the deployment-wide value is the worst shard's.
bool IsOccupancy(const std::string& name) {
  static const std::string kSuffix = ".ring_occupancy_bp";
  return name.size() > kSuffix.size() &&
         name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                      kSuffix) == 0;
}

}  // namespace

MetricsRegistry::Snapshot MergeSnapshots(
    const std::vector<MetricsRegistry::Snapshot>& snapshots) {
  MetricsRegistry::Snapshot merged;
  for (const MetricsRegistry::Snapshot& s : snapshots) {
    for (const auto& [name, v] : s.counters) merged.counters[name] += v;
    for (const auto& [name, v] : s.gauges) {
      int64_t& into = merged.gauges[name];
      into = IsOccupancy(name) ? std::max(into, v) : into + v;
    }
    for (const auto& [name, h] : s.histograms) {
      MergeInto(&merged.histograms[name], h);
    }
    for (const auto& [id, q] : s.queries) {
      MetricsRegistry::QuerySeriesSnapshot& into = merged.queries[id];
      into.records_emitted += q.records_emitted;
      into.late_drops += q.late_drops;
      into.slices_reused += q.slices_reused;
      into.slices_computed += q.slices_computed;
      into.cost_rows += q.cost_rows;
      into.cost_cpu_nanos += q.cost_cpu_nanos;
      into.cost_state_bytes += q.cost_state_bytes;
      MergeInto(&into.event_latency_ms, q.event_latency_ms);
      MergeInto(&into.deploy_latency_ms, q.deploy_latency_ms);
    }
  }
  auto ratio = merged.gauges.find("storage.compressed_ratio_bp");
  if (ratio != merged.gauges.end()) {
    ratio->second = CompressedRatioBp(
        merged.gauges["storage.spilled_disk_bytes"],
        merged.gauges["storage.spilled_raw_bytes"]);
  }
  return merged;
}

int64_t CompressedRatioBp(int64_t disk_bytes, int64_t raw_bytes) {
  return raw_bytes > 0 ? disk_bytes * 10000 / raw_bytes : 10000;
}

}  // namespace astream::obs
