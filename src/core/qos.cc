#include "core/qos.h"

#include <algorithm>

namespace astream::core {

void LatencyStats::Add(int64_t value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += value;
  if (count_ % stride_ == 0) {
    if (samples_.size() >= kMaxSamples) Thin();
    samples_.push_back(value);
  }
  ++count_;
}

void LatencyStats::Thin() {
  std::vector<int64_t> thinned;
  thinned.reserve(samples_.size() / 2 + 1);
  for (size_t i = 0; i < samples_.size(); i += 2) {
    thinned.push_back(samples_[i]);
  }
  samples_ = std::move(thinned);
  stride_ *= 2;
}

void LatencyStats::Merge(const LatencyStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ += other.count_;
  // Strides are powers of two: thinning the finer side to the coarser
  // stride keeps one sample per `stride_` observations on both sides, so
  // neither input is over-represented in the percentiles.
  LatencyStats coarse = other;
  while (stride_ < coarse.stride_) Thin();
  while (coarse.stride_ < stride_) coarse.Thin();
  samples_.insert(samples_.end(), coarse.samples_.begin(),
                  coarse.samples_.end());
  while (samples_.size() > kMaxSamples) Thin();
}

int64_t LatencyStats::Percentile(double p) const {
  if (samples_.empty()) return 0;
  std::sort(samples_.begin(), samples_.end());
  const double rank = p / 100.0 * (samples_.size() - 1);
  const size_t idx = static_cast<size_t>(rank);
  return samples_[std::min(idx, samples_.size() - 1)];
}

void QosMonitor::RecordOutput(QueryId query, TimestampMs event_time,
                              TimestampMs now) {
  std::lock_guard<std::mutex> lock(mutex_);
  event_time_latency_.Add(now - event_time);
  ++total_outputs_;
  ++outputs_per_query_[query];
}

void QosMonitor::RecordOutputs(std::span<const spe::Record> run,
                               TimestampMs now) {
  std::lock_guard<std::mutex> lock(mutex_);
  total_outputs_ += static_cast<int64_t>(run.size());
  size_t i = 0;
  while (i < run.size()) {
    const QueryId query = run[i].channel;
    const size_t begin = i;
    for (; i < run.size() && run[i].channel == query; ++i) {
      event_time_latency_.Add(now - run[i].event_time);
    }
    outputs_per_query_[query] += static_cast<int64_t>(i - begin);
  }
}

void QosMonitor::RecordDeployment(QueryId query, TimestampMs latency) {
  std::lock_guard<std::mutex> lock(mutex_);
  deployment_latency_.Add(latency);
  deployment_events_.emplace_back(query, latency);
}

QosMonitor::Snapshot QosMonitor::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot s;
  s.event_time_latency = event_time_latency_;
  s.deployment_latency = deployment_latency_;
  s.total_outputs = total_outputs_;
  s.outputs_per_query = outputs_per_query_;
  s.deployment_events = deployment_events_;
  return s;
}

int64_t QosMonitor::total_outputs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_outputs_;
}

int64_t QosMonitor::OutputsOf(QueryId query) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = outputs_per_query_.find(query);
  return it == outputs_per_query_.end() ? 0 : it->second;
}

}  // namespace astream::core
