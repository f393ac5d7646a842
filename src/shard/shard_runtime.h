#ifndef ASTREAM_SHARD_SHARD_RUNTIME_H_
#define ASTREAM_SHARD_SHARD_RUNTIME_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/job_config.h"
#include "harness/supervised_job.h"
#include "shard/spsc_queue.h"

namespace astream::shard {

/// One shard of a sharded deployment: an AStreamJob — plain, or wrapped
/// in a harness::SupervisedJob for crash recovery — plus, in threaded
/// router mode, a lock-free SPSC ingress ring drained by a dedicated pump
/// thread (the control thread never takes a channel mutex to push).
///
/// Threading contract mirrors AStreamJob: all control-plane calls
/// (Submit/Cancel/Pump/Checkpoint/Drain/Stop) come from ONE control
/// thread. In threaded mode they quiesce the ingress ring first, so the
/// shard observes data and control in exactly the order the control
/// thread issued them.
class ShardRuntime {
 public:
  struct Options {
    /// Shard index in the router's table (stable across migrations).
    int index = 0;
    /// Hand-off generation: bumped each time this index is rebuilt by a
    /// reshard, so durable checkpoint directories never collide.
    int generation = 0;
    /// The validated deployment config (per-shard engine options live in
    /// config.job; this runtime derives its durable dir from state_dir).
    JobConfig config;
    /// Non-null: restore this shard from a checkpoint drained elsewhere.
    std::shared_ptr<const spe::CheckpointStore::Checkpoint> restore_from;
  };

  explicit ShardRuntime(Options options);
  ~ShardRuntime();

  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  Status Start();

  /// Data plane. Threaded mode: enqueue onto the SPSC ring (blocking when
  /// full) and report kAccepted — acknowledgement is asynchronous, late
  /// clamps are absorbed by the shard. Inline mode: applied synchronously
  /// with the engine's exact result.
  core::PushResult Push(StreamId stream, TimestampMs t, spe::Row row);
  void PushWatermark(TimestampMs wm);

  /// Drains the ingress ring (threaded mode; no-op inline). The router
  /// quiesces EVERY shard before a control fan-out: pump threads can run
  /// supervised recoveries that pin the clock to replay times, and the
  /// fan-out must stamp one consistent wall time across all shards.
  void QuiesceIngress() { Quiesce(); }

  /// Control plane (quiesces the ring first in threaded mode).
  Result<core::QueryId> Submit(const core::QueryDescriptor& desc);
  Status Cancel(core::QueryId id);
  int Pump(bool force);
  bool WaitForDeployment(TimestampMs timeout_ms);

  /// Triggers a checkpoint and blocks until it is complete in the store
  /// (threaded engines complete asynchronously). Returns the completed
  /// checkpoint, or nullptr on failure/timeout.
  std::shared_ptr<const spe::CheckpointStore::Checkpoint>
  CheckpointAndWait();

  /// Live-resharding drain: quiesce all in-flight input, checkpoint, wait
  /// for completion, then stop the shard. The returned checkpoint is the
  /// shard's complete state for hand-off to the new owner(s).
  std::shared_ptr<const spe::CheckpointStore::Checkpoint>
  DrainToCheckpoint();

  Status FinishAndWait();
  Status Stop();

  Status Health() const;
  bool Failed() const;
  /// Chaos hook: declare the shard's current job incarnation failed, as a
  /// crashed process would (threaded engines only — the sync runner
  /// cannot fail asynchronously). Supervised shards recover on their next
  /// operation, replaying from the last checkpoint.
  void Kill(const Status& why);

  void SetResultCallback(core::AStreamJob::ResultRunCallback callback);

  /// Current engine incarnation (supervised shards swap it on recovery).
  core::AStreamJob* job();
  const core::AStreamJob* job() const;
  harness::SupervisedJob* supervised() { return supervised_.get(); }

  obs::MetricsRegistry::Snapshot MetricsSnapshot();
  core::QosMonitor::Snapshot QosSnapshot();
  core::AStreamJob::OperatorStats CollectStats() const;

  int index() const { return options_.index; }
  int generation() const { return options_.generation; }
  /// Data items enqueued/applied (threaded mode; equal when quiescent).
  int64_t enqueued() const {
    return enqueued_.load(std::memory_order_relaxed);
  }

 private:
  struct Ingress {
    int stream = 0;  // 0 = A, 1 = B, -1 = watermark
    TimestampMs time = 0;
    spe::Row row;
  };

  void PumpLoop();
  /// Waits until every enqueued ingress item has been applied.
  void Quiesce();
  core::PushResult ApplyPush(int stream, TimestampMs t, spe::Row row);
  void ApplyWatermark(TimestampMs wm);
  void CloseRing();

  Options options_;
  // Exactly one of the two is set (supervised flag in the config).
  std::unique_ptr<harness::SupervisedJob> supervised_;
  std::unique_ptr<core::AStreamJob> plain_;

  std::unique_ptr<SpscQueue<Ingress>> ring_;
  std::thread pump_;
  static constexpr int64_t kNoQuiescer = std::numeric_limits<int64_t>::max();

  std::atomic<int64_t> enqueued_{0};
  std::atomic<int64_t> applied_{0};
  /// applied_ value a waiting Quiesce needs; kNoQuiescer when none waits,
  /// so the pump pays one load per item.
  std::atomic<int64_t> quiesce_target_{kNoQuiescer};
  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;

  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace astream::shard

#endif  // ASTREAM_SHARD_SHARD_RUNTIME_H_
