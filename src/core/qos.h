#ifndef ASTREAM_CORE_QOS_H_
#define ASTREAM_CORE_QOS_H_

#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "core/query.h"
#include "spe/element.h"

namespace astream::core {

/// Streaming latency statistics with bounded memory: exact count/mean/
/// min/max plus percentile estimates from a capped sample buffer (every
/// k-th observation once the cap is reached).
class LatencyStats {
 public:
  void Add(int64_t value);
  /// Folds `other` in: count, sum, min and max stay exact; both sample
  /// buffers are first thinned to the coarser stride, then concatenated
  /// and thinned again past the cap, exactly as Add thins.
  void Merge(const LatencyStats& other);

  int64_t count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }
  /// p in [0, 100]; approximate beyond kMaxSamples observations.
  int64_t Percentile(double p) const;

 private:
  static constexpr size_t kMaxSamples = 65536;

  /// Keeps every other sample and doubles the stride.
  void Thin();

  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  int64_t stride_ = 1;
  mutable std::vector<int64_t> samples_;
};

/// QoS monitor (Sec. 3.4): collects, per ad-hoc environment metric of
/// Sec. 4.3, the measurements a service owner needs — event-time latency
/// of emitted results, query deployment latency, and per-query output
/// counts. Thread-safe (sinks run on task threads).
class QosMonitor {
 public:
  /// A result for `query` with event time `event_time` left the system at
  /// wall time `now`.
  void RecordOutput(QueryId query, TimestampMs event_time, TimestampMs now);
  /// A run of routed results (each record's channel is its query) left the
  /// system at wall time `now`: one lock, one count update per stretch of
  /// equal query ids.
  void RecordOutputs(std::span<const spe::Record> run, TimestampMs now);

  /// A create/delete request for `query` took `latency` ms to deploy.
  void RecordDeployment(QueryId query, TimestampMs latency);

  struct Snapshot {
    LatencyStats event_time_latency;
    LatencyStats deployment_latency;
    int64_t total_outputs = 0;
    std::map<QueryId, int64_t> outputs_per_query;
    /// Deployment acks in arrival order (Fig. 10 timelines).
    std::vector<std::pair<QueryId, TimestampMs>> deployment_events;
  };
  Snapshot TakeSnapshot() const;

  int64_t total_outputs() const;
  int64_t OutputsOf(QueryId query) const;

 private:
  mutable std::mutex mutex_;
  LatencyStats event_time_latency_;
  LatencyStats deployment_latency_;
  int64_t total_outputs_ = 0;
  std::map<QueryId, int64_t> outputs_per_query_;
  std::vector<std::pair<QueryId, TimestampMs>> deployment_events_;
};

}  // namespace astream::core

#endif  // ASTREAM_CORE_QOS_H_
