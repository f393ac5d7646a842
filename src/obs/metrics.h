#ifndef ASTREAM_OBS_METRICS_H_
#define ASTREAM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace astream::obs {

/// Monotonic event counter. Increments are relaxed atomics — safe from any
/// task thread, no lock, no fence on the hot path.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depths, active-query counts).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-bucketed latency histogram: fixed power-of-two buckets, atomic
/// increments on the record path, snapshot-on-read. Bucket b covers
///   b == 0:                 value <= 0  (clamped; latencies are >= 0)
///   0 < b < kNumBuckets-1:  [2^(b-1), 2^b)
///   b == kNumBuckets-1:     [2^(kNumBuckets-2), +inf)   (overflow bucket)
/// With kNumBuckets = 48 the last finite boundary is 2^46 ms (~2000 years),
/// so the overflow bucket only catches corrupted timestamps.
class Histogram {
 public:
  static constexpr int kNumBuckets = 48;

  /// The bucket a value lands in (see class comment).
  static int BucketIndex(int64_t value);
  /// Inclusive lower bound of a bucket (0 for bucket 0).
  static int64_t BucketLowerBound(int index);
  /// Exclusive upper bound of a bucket (INT64_MAX for the overflow bucket).
  static int64_t BucketUpperBound(int index);

  /// Records `count` observations of `value` (count >= 1) with one add per
  /// field: a run of results sharing one latency costs what one does.
  void Record(int64_t value, int64_t count = 1);

  /// A consistent-enough copy of the histogram (buckets are read with
  /// relaxed loads; concurrent writers may be mid-update, which shifts a
  /// percentile by at most one observation).
  struct Snapshot {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
    std::array<int64_t, kNumBuckets> buckets{};

    double mean() const {
      return count == 0 ? 0.0 : static_cast<double>(sum) / count;
    }
    /// p in [0, 100]. Linear interpolation inside the target bucket; the
    /// result is clamped to [min, max] so small samples stay exact-ish.
    double Percentile(double p) const;
  };
  Snapshot TakeSnapshot() const;

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{INT64_MIN};
};

/// The fixed per-query series AStream records (see DESIGN.md
/// "Observability"): all counters/histograms a shared operator touches for
/// one query live in one cache-friendly struct with a stable address.
struct QuerySeries {
  /// Records the router shipped to this query's output channel.
  Counter records_emitted;
  /// Records dropped late (behind the watermark) that carried this
  /// query's tag at a shared join/aggregation.
  Counter late_drops;
  /// Shared slice results this query consumed without recomputation
  /// (join memo hits + aggregation slice partials combined).
  Counter slices_reused;
  /// Slice results computed on this query's behalf (join memo misses).
  Counter slices_computed;
  /// Wall-minus-event-time of each emitted record, at the router (ms).
  Histogram event_latency_ms;
  /// Deploy latency of this query's create/delete requests (ms).
  Histogram deploy_latency_ms;
  /// Cost metering (DESIGN.md §14): rows a shared operator processed on
  /// this query's behalf (per set tag bit at ingest / per matched
  /// predicate at the selection). Recorded only with Options::meter_costs.
  Counter cost_rows;
  /// CPU nanoseconds of window triggers attributed to this query (a
  /// trigger shared by k queries bills each query 1/k of the wall time).
  Counter cost_cpu_nanos;
  /// Resident state bytes apportioned to this query by window-span share
  /// of its operators' arenas. Refreshed by MetricsSnapshot().
  Gauge cost_state_bytes;
  /// Set once, by whichever sink sees the query's first result.
  std::atomic<bool> first_result_seen{false};
};

/// Registry of named metrics plus per-query series. Registration and
/// snapshotting take a mutex; the returned Counter/Gauge/Histogram/
/// QuerySeries pointers are stable for the registry's lifetime, so hot
/// paths cache them and never touch the lock — recording is lock-free.
///
/// A disabled registry hands out nullptr series and instruments nothing;
/// operators guard with a single `if (ptr)` branch per record.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  bool enabled() const { return enabled_; }

  /// Find-or-create by name. Never returns nullptr (even disabled — named
  /// metrics are cheap and callers hold the pointer behind their own
  /// enabled-guard anyway).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Find-or-create the series of one query id. Returns nullptr when the
  /// registry is disabled.
  QuerySeries* SeriesFor(int64_t query_id);

  struct QuerySeriesSnapshot {
    int64_t records_emitted = 0;
    int64_t late_drops = 0;
    int64_t slices_reused = 0;
    int64_t slices_computed = 0;
    int64_t cost_rows = 0;
    int64_t cost_cpu_nanos = 0;
    int64_t cost_state_bytes = 0;
    Histogram::Snapshot event_latency_ms;
    Histogram::Snapshot deploy_latency_ms;
  };
  struct Snapshot {
    std::map<std::string, int64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, Histogram::Snapshot> histograms;
    std::map<int64_t, QuerySeriesSnapshot> queries;
  };
  Snapshot TakeSnapshot() const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  // unique_ptr values: pointers stay valid across rehash/rebalance.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<int64_t, std::unique_ptr<QuerySeries>> series_;
};

/// Merges one histogram snapshot into another (counts, sums, and buckets
/// add; min/max widen). The sharded deployment view is built from these.
void MergeInto(Histogram::Snapshot* into, const Histogram::Snapshot& from);

/// Merges per-shard registry snapshots into one coherent view: counters,
/// gauges, and per-query series add across shards; histograms merge
/// bucket-wise. Gauges are summed because nearly every AStream gauge is a
/// size or byte count (queue depths, arena bytes, retained checkpoints)
/// whose deployment-wide value is the total. The two ratio gauges are the
/// exceptions: `edge.<stage>.ring_occupancy_bp` merges by max (the
/// fullest ring), and `storage.compressed_ratio_bp` is recomputed from
/// the summed `storage.spilled_{disk,raw}_bytes`.
MetricsRegistry::Snapshot MergeSnapshots(
    const std::vector<MetricsRegistry::Snapshot>& snapshots);

/// On-disk over raw bytes of everything spilled, in basis points (10000 =
/// stored uncompressed, also when nothing was spilled yet): the
/// `storage.compressed_ratio_bp` gauge.
int64_t CompressedRatioBp(int64_t disk_bytes, int64_t raw_bytes);

/// Per-operator-instance memo of query-id -> series pointer. Instances are
/// single-threaded, so the map needs no lock; only a cache miss touches
/// the registry mutex (once per query per instance).
class SeriesCache {
 public:
  explicit SeriesCache(MetricsRegistry* registry = nullptr)
      : registry_(registry) {}

  void Reset(MetricsRegistry* registry) {
    registry_ = registry;
    cache_.clear();
  }

  /// nullptr when the registry is absent or disabled.
  QuerySeries* For(int64_t query_id) {
    if (registry_ == nullptr || !registry_->enabled()) return nullptr;
    auto it = cache_.find(query_id);
    if (it != cache_.end()) return it->second;
    QuerySeries* s = registry_->SeriesFor(query_id);
    cache_.emplace(query_id, s);
    return s;
  }

  MetricsRegistry* registry() const { return registry_; }

 private:
  MetricsRegistry* registry_;
  std::unordered_map<int64_t, QuerySeries*> cache_;
};

}  // namespace astream::obs

#endif  // ASTREAM_OBS_METRICS_H_
