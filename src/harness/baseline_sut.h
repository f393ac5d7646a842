#ifndef ASTREAM_HARNESS_BASELINE_SUT_H_
#define ASTREAM_HARNESS_BASELINE_SUT_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "harness/sut.h"
#include "spe/runner.h"

namespace astream::harness {

/// The query-at-a-time baseline ("vanilla Flink", Sec. 4.1): every query
/// is an independent streaming job on the substrate — its own filter /
/// windowed-join / windowed-aggregation pipeline — fed by forking the
/// input streams to every job (the Kafka-fork best practice of Sec. 1).
///
/// Deployments are serialized on one deployment worker and each pays a
/// configurable cost that stands in for scheduler + JVM + task deployment
/// time (see DESIGN.md's substitution table). This reproduces the paper's
/// central baseline bottleneck: query deployment latency grows without
/// bound once requests arrive faster than jobs can be (un)deployed.
class BaselineSut : public StreamSut {
 public:
  struct Config {
    int parallelism = 1;
    bool threaded = false;
    /// Simulated per-job (un)deployment cost.
    TimestampMs deploy_cost_ms = 200;
    size_t channel_capacity = 1024;
    Clock* clock = nullptr;  // defaults to WallClock
  };

  explicit BaselineSut(Config config);
  ~BaselineSut() override;

  Status Start() override;
  core::PushResult Push(int stream, TimestampMs event_time,
                        spe::Row row) override;
  void PushWatermark(TimestampMs watermark) override;
  Result<core::QueryId> Submit(const core::QueryDescriptor& desc) override;
  Status Cancel(core::QueryId id) override;
  bool WaitDeployed(TimestampMs timeout_ms) override;
  void FinishAndWait() override;
  void Stop() override;
  core::QosMonitor& qos() override { return qos_; }
  size_t QueuedElements() const override;
  const char* name() const override { return "Flink(query-at-a-time)"; }

  size_t num_active_jobs() const;
  /// Requests still waiting for the deployment worker.
  size_t deploy_queue_depth() const;

 private:
  struct QueryJob {
    core::QueryId id = -1;
    core::QueryDescriptor desc;
    std::shared_ptr<spe::Runner> runner;
    int num_inputs = 1;  // external input streams of its pipeline
  };

  struct DeployRequest {
    bool create = true;
    core::QueryId id = -1;
    core::QueryDescriptor desc;
    TimestampMs enqueued_at = 0;
  };

  void DeployWorker();
  Result<std::shared_ptr<spe::Runner>> BuildJob(core::QueryId id,
                                                const core::QueryDescriptor&
                                                    desc);
  std::vector<std::shared_ptr<QueryJob>> SnapshotJobs() const;

  Config config_;
  Clock* clock_;
  core::QosMonitor qos_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<core::QueryId, std::shared_ptr<QueryJob>> jobs_;
  std::deque<DeployRequest> deploy_queue_;
  size_t in_flight_deploys_ = 0;
  core::QueryId next_id_ = 1;
  bool stopping_ = false;
  std::thread deploy_thread_;
  TimestampMs last_watermark_ = kMinTimestamp;
  bool started_ = false;
};

}  // namespace astream::harness

#endif  // ASTREAM_HARNESS_BASELINE_SUT_H_
