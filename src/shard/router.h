#ifndef ASTREAM_SHARD_ROUTER_H_
#define ASTREAM_SHARD_ROUTER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/qos.h"
#include "shard/shard_plan.h"
#include "shard/shard_runtime.h"

namespace astream::shard {

/// Hash-partitioning ingress over N per-shard AStream runtimes: rows
/// route by key through the shard plan, watermarks broadcast, and
/// Submit/Cancel fan out to every shard — each shard's deterministic
/// session assigns the same query id, which the router asserts, so one
/// logical query exists on all shards under one id. Per-query outputs
/// merge into a single callback, filtered by current slot ownership (so a
/// freshly split shard pair, both restored from the full pre-split state,
/// emits every result exactly once). Metrics/QoS/operator stats merge
/// into one deployment-wide view.
///
/// Egress is share-nothing: each shard delivers through its own
/// cache-line-aligned EgressSlot (ownership plan, post-filter QoS tally)
/// and its own copy of the user callback, so no lock, refcount or cache
/// line on the result path is shared between shards. Results arrive in
/// runs: one slot lock per run filters and tallies it, then the user's
/// per-row callback sees each owned row outside the lock.
///
/// Live resharding: MoveShard drains a shard to a (durably persistable)
/// checkpoint and rebuilds it; SplitShard drains one shard and restores
/// the checkpoint on TWO shards while the plan splits the slot range. The
/// remaining shards keep draining their ingress rings throughout; the
/// measured control-thread pause is reported via last_reshard_pause_ms().
///
/// Single control thread, like AStreamJob. Result callbacks arrive on
/// shard sink threads in threaded mode.
class ShardRouter {
 public:
  static Result<std::unique_ptr<ShardRouter>> Create(JobConfig config);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  Status Start();

  core::PushResult Push(StreamId stream, TimestampMs event_time,
                        spe::Row row);
  void PushWatermark(TimestampMs watermark);

  /// Fans out to all shards. On a partial failure every already-applied
  /// shard is rolled back (the pending creation is dropped from its
  /// session batch) and ONE coherent status comes back — a query is never
  /// left half-registered. Divergent id assignment across shards is a
  /// consistency violation: rolled back and reported as Internal.
  ///
  /// With config.job.slo.enable_admission the router gates the fan-out
  /// through its own deployment-wide admission controller — reject-only
  /// (kAdmissionRejected): queueing would need a deployment-wide drain
  /// protocol, a documented single-job-only feature. Shards themselves
  /// run with admission stripped so the gate cannot double-fire.
  Result<core::QueryId> Submit(const core::QueryDescriptor& desc);
  /// Fans out to all shards. A validation failure on the first shard
  /// rejects cleanly (nothing applied anywhere); a divergent failure on a
  /// later shard poisons the router (Health() turns non-OK) because a
  /// buffered cancellation cannot be withdrawn.
  Status Cancel(core::QueryId id);

  int Pump(bool force = false);
  bool WaitForDeployment(TimestampMs timeout_ms = 10'000);

  /// Checkpoints every shard and waits for completion.
  Status Checkpoint();

  /// Drains `shard` to a checkpoint and rebuilds it (new generation,
  /// restored from the hand-off checkpoint). Ownership is unchanged.
  Status MoveShard(int shard);
  /// Drains `shard`, restores its checkpoint on itself AND a brand-new
  /// shard, and publishes a plan that splits the slot range between the
  /// two. Requires the shard to own >= 2 slots.
  Status SplitShard(int shard);
  /// Control-thread stall of the last Move/SplitShard, in wall ms.
  int64_t last_reshard_pause_ms() const {
    return last_reshard_pause_ms_.load(std::memory_order_relaxed);
  }

  /// Chaos hook: kill one shard's engine as a crash would.
  Status KillShard(int shard, const Status& why);

  Status FinishAndWait();
  Status Stop();
  Status Health() const;

  void SetResultCallback(core::AStreamJob::ResultCallback callback);

  /// Deployment-wide views.
  obs::MetricsRegistry::Snapshot MetricsSnapshot();
  core::QosMonitor::Snapshot QosSnapshot();
  core::AStreamJob::OperatorStats CollectStats() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::shared_ptr<const ShardPlan> plan() const { return plan_; }
  /// Test access to one shard runtime.
  ShardRuntime* shard(int i) { return shards_[static_cast<size_t>(i)].get(); }

 private:
  explicit ShardRouter(JobConfig config);

  /// One shard's egress state. The shard's sink thread(s) take `mu` once
  /// per delivered run; the control thread takes it only to publish a plan
  /// or read the tally, so the lock is never shared between shards.
  /// Cache-line aligned: neighbouring slots never false-share.
  struct alignas(64) EgressSlot {
    explicit EgressSlot(int index) : index(index) {}
    const int index;
    std::mutex mu;
    /// Ownership table the egress filter reads (guarded by mu).
    std::shared_ptr<const ShardPlan> plan;
    /// Post-filter QoS of the rows this shard delivered (guarded by mu):
    /// total, per-query counts and event-time latency.
    core::QosMonitor::Snapshot tally;
  };

  std::unique_ptr<ShardRuntime> MakeRuntime(
      int index, int generation,
      std::shared_ptr<const spe::CheckpointStore::Checkpoint> restore_from);
  /// Installs the ownership-filtered result callback on a shard: it
  /// captures the shard's egress slot and a copy of the user callback.
  void InstallCallback(ShardRuntime* runtime, int index);
  /// Appends the egress slot for shard `index` (control thread only; the
  /// vector holds pointers, so growing it moves no slot a sink reads).
  void AddEgressSlot(int index);
  /// Replaces the plan and hands it to every egress slot.
  void PublishPlan(ShardPlan next);
  void Deliver(EgressSlot* slot,
               const core::AStreamJob::ResultCallback& callback,
               std::span<const spe::Record> run);
  /// Post-filter event-time latency merged over the egress slots.
  core::LatencyStats EgressLatency();
  /// Drains every shard's ingress ring before a control fan-out so all
  /// shards stamp the operation at one consistent wall time.
  void QuiesceAll();
  void Poison(const Status& status);

  JobConfig config_;
  Clock* clock_;
  /// Deployment-wide admission gate (reject-only; see Submit). Counters
  /// land in router_metrics_, merged into MetricsSnapshot().
  core::AdmissionController admission_;
  obs::MetricsRegistry router_metrics_;
  std::vector<std::unique_ptr<ShardRuntime>> shards_;
  /// Bumped per index on every rebuild (durable dir uniqueness).
  std::vector<int> generations_;
  /// Current ownership table. Only the control thread reads or replaces
  /// this pointer (Push, plan(), resharding); sinks read the copy in their
  /// egress slot.
  std::shared_ptr<const ShardPlan> plan_;
  /// egress_[i] belongs to shard i. Router-level QoS is recorded here,
  /// post-filter: per-shard job monitors would double-count results the
  /// ownership filter suppresses.
  std::vector<std::unique_ptr<EgressSlot>> egress_;
  /// The control thread's copy; every shard holds its own.
  core::AStreamJob::ResultCallback user_callback_;

  mutable std::mutex poison_mu_;
  Status poisoned_ = Status::OK();

  std::atomic<int64_t> last_reshard_pause_ms_{0};
  bool started_ = false;
};

}  // namespace astream::shard

#endif  // ASTREAM_SHARD_ROUTER_H_
