#ifndef ASTREAM_SPE_RUNNER_H_
#define ASTREAM_SPE_RUNNER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/status.h"
#include "spe/channel.h"
#include "spe/ring.h"
#include "spe/state.h"
#include "spe/topology.h"

namespace astream::spe {

/// One hand-off from a sink stage to the SinkFn: either a run, holding
/// every record one operator call of the instance emitted, in emission
/// order (`records` non-empty, `control` null), or one watermark, marker
/// or done the instance forwarded (`control`; `records` empty). A run
/// reaches the sink before any control element that follows it.
struct SinkOutput {
  std::span<const Record> records;
  const StreamElement* control = nullptr;
};

/// Receives everything sink stages emit: runs of records, plus forwarded
/// watermarks / markers / done signals (so exactly-once sinks can see
/// checkpoint epochs inline with the data). Invoked from task threads in
/// threaded mode — implementations must be thread-safe. A chained stage's
/// replicas call it on the task thread of the instance that feeds them,
/// with the replica index as `instance`.
using SinkFn =
    std::function<void(int stage, int instance, const SinkOutput& output)>;

/// Receives operator snapshots taken at aligned checkpoint barriers.
using SnapshotFn = std::function<void(int64_t checkpoint_id, int stage,
                                      int instance,
                                      std::vector<uint8_t> state)>;

namespace internal {

/// Per-instance execution wrapper. Owns the operator and implements the
/// runtime contract documented on Operator: per-sender watermark
/// minimization, aligned marker delivery with per-sender blocking, done
/// propagation, and checkpoint snapshots. All methods must be invoked from
/// one thread at a time.
class InstanceRuntime {
 public:
  InstanceRuntime(int stage, int instance, std::unique_ptr<Operator> op);

  /// Declares an upstream sender feeding `port`. Must be called for every
  /// (port, sender) pair before the first DeliverBatch.
  void AddExpectedSender(int port, int sender_gid);

  /// Routing callbacks, set by the runner before the first DeliverBatch.
  /// Sends a record produced by the operator downstream as it is emitted.
  std::function<void(StreamElement&&)> emit_record;
  /// Set instead of emit_record on a sink stage: receives every record one
  /// operator call emitted as one run, when the call returns and before
  /// any control element the instance forwards. May move records out.
  std::function<void(RecordBatch&)> emit_run;
  /// Broadcasts a control element (watermark / marker / done) downstream.
  std::function<void(const StreamElement&)> forward_control;
  /// Stores a checkpoint snapshot (may be null).
  SnapshotFn snapshot;

  Status Open(const OperatorContext& ctx);

  /// Processes one batch envelope. Record runs inside the batch are handed
  /// to Operator::ProcessBatch; control elements are handled per element
  /// with the usual alignment rules. If a marker blocks the sender
  /// mid-batch, the unprocessed tail is parked (in order) until the marker
  /// fires — callers need no special casing.
  void DeliverBatch(BatchEnvelope&& batch);

  /// True once all senders signalled done and the operator was closed.
  bool Finished() const { return finished_; }

  Operator* op() { return op_.get(); }
  int stage() const { return stage_; }
  int instance() const { return instance_; }

  int64_t records_in() const {
    return records_in_.load(std::memory_order_relaxed);
  }
  int64_t records_out() const {
    return records_out_.load(std::memory_order_relaxed);
  }

 private:
  struct SenderState {
    TimestampMs watermark = kMinTimestamp;
    bool done = false;
    bool blocked = false;
    std::deque<BatchEnvelope> pending;
  };

  class RecordCollector;

  SenderState& GetSender(int port, int sender);
  void HandleBatch(int port, int sender, ElementBatch&& elements);
  void HandleControl(SenderState& st, StreamElement&& element);
  void HandleMarker(SenderState& st, const ControlMarker& marker);
  void FireMarker(const ControlMarker& marker);
  void RecomputeWatermark();
  void CheckAllDone();
  void DrainPending();
  /// Closes one operator call: publishes its emitted-record count and
  /// hands a sink stage's run on.
  void EndCall();

  const int stage_;
  const int instance_;
  std::unique_ptr<Operator> op_;

  // Key: (port << 32) | low 32 bits of sender gid.
  std::map<int64_t, SenderState> senders_;
  size_t total_senders_ = 0;
  size_t done_senders_ = 0;

  // In-flight marker alignment. Senders deliver markers in identical order,
  // so at most one marker is aligning at a time.
  bool aligning_ = false;
  ControlMarker aligning_marker_;
  size_t aligned_count_ = 0;

  TimestampMs current_watermark_ = kMinTimestamp;
  bool finished_ = false;
  bool draining_ = false;

  std::unique_ptr<Collector> collector_;
  // Scratch run of records handed to ProcessBatch; reused across batches.
  RecordBatch scratch_records_;
  // Records the current operator call emitted: all of them (sink stage,
  // out_run_) or just their number (call_out_, published by EndCall).
  RecordBatch out_run_;
  int64_t call_out_ = 0;
  std::atomic<int64_t> records_in_{0};
  std::atomic<int64_t> records_out_{0};
};

/// Routing edge from a stage to one consumer stage/port.
struct DownstreamEdge {
  int target_stage = -1;
  int port = 0;
  Partitioning partitioning = Partitioning::kHash;
  /// Chained target only: producer instance i feeds its own replica,
  /// number `replica_base + i`. -1 for an ordinary target.
  int replica_base = -1;

  bool chained() const { return replica_base >= 0; }
};

/// Every instance runtime of a started topology, indexed
/// [stage][instance]; a chained stage's entries are its replicas.
using RuntimeTable = std::vector<std::vector<InstanceRuntime*>>;

/// Deterministic key → instance routing, identical across stages so that
/// co-partitioned operators (e.g. the two inputs of a keyed join) agree.
int InstanceForKey(Value key, int parallelism);

}  // namespace internal

/// Common interface of the two execution modes.
class Runner {
 public:
  virtual ~Runner() = default;

  /// Validates the topology, instantiates and opens all operators.
  virtual Status Start() = 0;

  /// Pushes a data element (record or watermark) into external input
  /// `input_index`. Elements per input must be pushed in event-time order.
  /// Returns false after the job was cancelled.
  virtual bool Push(int input_index, StreamElement element) = 0;

  /// Pushes a run of elements into external input `input_index` as one
  /// batch: records are demultiplexed into per-instance sub-batches (one
  /// channel push each); any control element inside the batch flushes the
  /// sub-batches first and is then broadcast, so it stays a batch boundary.
  /// Returns false after the job was cancelled.
  virtual bool Push(int input_index, ElementBatch batch) = 0;

  /// Pushes a control marker into every external input. All markers must
  /// be injected in one global order (they are serialized internally).
  virtual void InjectMarker(const ControlMarker& marker) = 0;

  /// Signals end of input on all external inputs (a +inf watermark
  /// followed by done), then waits for all operators to finish.
  virtual void FinishAndWait() = 0;

  /// Hard stop: drops in-flight elements and joins all tasks.
  virtual void Cancel() = 0;

  /// Restores all operator state from a completed checkpoint. Must be
  /// called after Start() and before any Push.
  virtual Status Restore(const CheckpointStore::Checkpoint& checkpoint) = 0;

  /// First failure captured from a task (OK while healthy). A failed
  /// runner is poisoned: all inboxes are closed, pushes return false, and
  /// FinishAndWait/Cancel still join cleanly. Synchronous runners never
  /// fail this way (exceptions propagate to the caller instead).
  virtual Status Failure() const { return Status::OK(); }
  virtual bool Failed() const { return false; }

  /// Total records processed / emitted by a stage (sum over instances).
  virtual int64_t StageRecordsIn(int stage) const = 0;
  virtual int64_t StageRecordsOut(int stage) const = 0;

  /// Topology shape, for observability exporters sampling per-stage series.
  virtual int NumStages() const = 0;
  virtual const std::string& StageName(int stage) const = 0;
};

/// Single-threaded, deterministic, depth-first execution. Parallel stage
/// instances are still honored (hash routing picks an instance; all run on
/// the caller's thread). Used by tests, reference runs, examples, and the
/// engines behind shard pump threads.
///
/// Emitted records move between operators in batches, with the same
/// policy as ThreadedRunner: each instance buffers its output per
/// (edge, target instance) and delivers a buffer as one batch when it
/// reaches `batch_size`, before the instance forwards any control element,
/// and when the delivery that produced the records returns. The size cap
/// bounds how long a long trigger holds its first results. `batch_size = 1`
/// reproduces record-at-a-time depth-first order. A buffer into a chained
/// stage goes to the producer's own replica (StageSpec::chained).
class SyncRunner : public Runner {
 public:
  SyncRunner(TopologySpec spec, SinkFn sink, SnapshotFn snapshot = nullptr,
             size_t batch_size = 1);
  ~SyncRunner() override;

  Status Start() override;
  bool Push(int input_index, StreamElement element) override;
  bool Push(int input_index, ElementBatch batch) override;
  void InjectMarker(const ControlMarker& marker) override;
  void FinishAndWait() override;
  void Cancel() override;
  Status Restore(const CheckpointStore::Checkpoint& checkpoint) override;
  int64_t StageRecordsIn(int stage) const override;
  int64_t StageRecordsOut(int stage) const override;
  int NumStages() const override;
  const std::string& StageName(int stage) const override;

 private:
  struct Instance {
    std::unique_ptr<internal::InstanceRuntime> runtime;
    // Output buffers, indexed [downstream edge][target instance]; an edge
    // into a chained stage has one target, this instance's replica.
    std::vector<std::vector<ElementBatch>> out;
    // Replicas of chained stages, indexed by downstream edge (null for
    // edges into ordinary stages).
    std::vector<std::unique_ptr<internal::InstanceRuntime>> replicas;
  };

  /// Hands `batch` to one instance, then delivers whatever that delivery
  /// left in the instance's output buffers.
  void DeliverTo(int stage, int instance, BatchEnvelope&& batch);
  /// Hands `batch` to target `target` of edge `edge_idx` of the producer
  /// (stage, instance): its replica for a chained edge, else DeliverTo.
  void DeliverOnEdge(int stage, int instance, size_t edge_idx, int target,
                     BatchEnvelope&& batch);
  /// A sink stage's run: to the sink, then along any downstream edges.
  void RouteRun(int stage, int instance, RecordBatch& run);
  void RouteRecord(int stage, int instance, StreamElement&& el);
  void RouteControl(int stage, int instance, const StreamElement& el);
  void FlushBuffer(int stage, int instance, size_t edge_idx, int target);
  void FlushOutputs(int stage, int instance);
  void RouteExternal(int input_index, StreamElement element);

  TopologySpec spec_;
  SinkFn sink_;
  SnapshotFn snapshot_;
  const size_t batch_size_;
  // instances_[stage][instance]; empty for a chained stage.
  std::vector<std::vector<Instance>> instances_;
  internal::RuntimeTable runtimes_;
  std::vector<std::vector<internal::DownstreamEdge>> downstream_;
  std::vector<int> gid_base_;
  bool started_ = false;
  bool cancelled_ = false;
  bool finished_ = false;
};

/// Observation hook invoked after every successful channel push (and every
/// hand-off to a chained replica) with the target stage and the number of
/// elements in the batch. Runs on producer threads — implementations must
/// be thread-safe (the obs layer wires this to a per-edge batch-size
/// histogram).
using EdgePushObserver = std::function<void(int stage, size_t batch_size)>;

/// Multi-threaded execution: one task thread and one bounded input side
/// (TaskInbox) per operator instance; blocking pushes provide backpressure
/// end to end.
///
/// Channel selection is per edge: every internal (upstream-instance ->
/// downstream-instance) edge has exactly one producing thread, so it gets
/// a lock-free SPSC ring; external-ingress edges (driver pushes, injected
/// markers) go through the instance's mutex MPMC channel. Control elements
/// travel the same per-sender source as that sender's records, so per-
/// (port, sender) FIFO — all that marker alignment needs — is preserved.
/// `use_spsc_rings = false` routes every edge through the mutex channel
/// (the pre-ring data plane, kept for comparison and as the MPMC fallback).
///
/// Emitted records are accumulated into per-(edge, target-instance) output
/// buffers and shipped as ElementBatches: a buffer is flushed when it
/// reaches `batch_size`, when the producing task finishes one input batch
/// (so added latency is bounded by one upstream batch — the task-level
/// linger), or before any control element is forwarded (markers and
/// watermarks are batch boundaries; per-edge FIFO order is preserved).
///
/// A chained stage (StageSpec::chained) gets no task: each producing task
/// runs its own replica of it and hands it batches and control elements
/// by a direct call, so nothing the replica reads crosses a thread.
class ThreadedRunner : public Runner {
 public:
  /// `channel_capacity` bounds each instance's input queue (in elements for
  /// the mutex channel; rings hold `channel_capacity / batch_size` batches,
  /// clamped to [8, 256] slots). `batch_size = 1` reproduces
  /// element-at-a-time behavior.
  ThreadedRunner(TopologySpec spec, SinkFn sink,
                 SnapshotFn snapshot = nullptr,
                 size_t channel_capacity = 1024, size_t batch_size = 1,
                 bool use_spsc_rings = true);
  ~ThreadedRunner() override;

  /// Installs the per-edge push observer. Must be called before Start().
  void SetEdgePushObserver(EdgePushObserver observer) {
    edge_observer_ = std::move(observer);
  }

  Status Start() override;
  bool Push(int input_index, StreamElement element) override;
  bool Push(int input_index, ElementBatch batch) override;
  void InjectMarker(const ControlMarker& marker) override;
  void FinishAndWait() override;
  void Cancel() override;
  Status Restore(const CheckpointStore::Checkpoint& checkpoint) override;
  int64_t StageRecordsIn(int stage) const override;
  int64_t StageRecordsOut(int stage) const override;
  int NumStages() const override;
  const std::string& StageName(int stage) const override;

  /// Sum of queued elements across all instance inboxes (backpressure /
  /// sustainability probe).
  size_t TotalQueuedElements() const;
  /// Queued elements in one stage's inboxes (queue-depth gauges).
  size_t StageQueuedElements(int stage) const;
  /// Highest SPSC-ring fill fraction across one stage's instances, in
  /// [0, 1] (the `edge.<stage>.ring_occupancy` gauge); 0 without rings.
  double StageRingOccupancy(int stage) const;
  bool use_spsc_rings() const { return use_spsc_rings_; }

  /// Failure capture: a task body that throws (or observes an unexpected
  /// closed edge) poisons the runner instead of dying silently — the first
  /// Status is kept, every inbox is closed so all tasks quiesce and all
  /// blocked producers unblock, and pushes return false from then on.
  Status Failure() const override;
  bool Failed() const override {
    return poisoned_.load(std::memory_order_acquire);
  }
  /// External failure declaration (watchdog stall detection): poisons the
  /// runner exactly as a task exception would.
  void DeclareFailed(const Status& status) { Poison(status); }

  /// Per-task liveness sample for heartbeat watchdogs: the loop-iteration
  /// counter plus the queued input backlog. A task whose counter is frozen
  /// while its backlog is nonzero is stalled.
  struct TaskHealthSample {
    int stage = 0;
    int instance = 0;
    uint64_t iterations = 0;
    size_t queued = 0;
  };
  std::vector<TaskHealthSample> SampleTaskHealth() const;

 private:
  struct Task {
    std::unique_ptr<internal::InstanceRuntime> runtime;
    std::unique_ptr<TaskInbox> inbox;
    std::thread thread;
    // Bumped once per task-loop iteration (heartbeat for the watchdog).
    std::atomic<uint64_t> heartbeat{0};
    // Output accumulators, indexed [downstream edge][target instance].
    // Touched only by this task's thread.
    std::vector<std::vector<ElementBatch>> out;
    // Producer handles into downstream inboxes, same indexing as `out`
    // (empty for a chained edge). Empty (ring mode off) => push via the
    // target's external channel.
    std::vector<std::vector<SpscRing*>> out_rings;
    // Replicas of chained stages, indexed by downstream edge (null for
    // edges into ordinary stages). Run on this task's thread.
    std::vector<std::unique_ptr<internal::InstanceRuntime>> replicas;
  };

  void TaskLoop(Task* task);
  /// Records the first failure, then closes every inbox (quiesce): tasks
  /// drain and exit, blocked producers unblock with push failures.
  void Poison(const Status& status);
  /// A sink stage's run: to the sink, then along any downstream edges.
  void RouteRun(int stage, int instance, RecordBatch& run);
  void RouteRecord(int stage, int instance, StreamElement&& el);
  void RouteControl(int stage, int instance, const StreamElement& el);
  void FlushBuffer(Task* task, int stage, size_t edge_idx, int target);
  void FlushTaskOutputs(Task* task, int stage);
  /// Push along an internal edge: a direct call into the task's replica
  /// for a chained edge, else the producing task's dedicated SPSC ring when
  /// rings are on, the target's mutex channel otherwise.
  void PushEdge(Task* task, int stage, size_t edge_idx, int target,
                BatchEnvelope batch);
  /// Push from an external (non-task) producer: always the mutex channel.
  void PushExternalTo(int stage, int instance, BatchEnvelope batch);
  void DeliverTo(int stage, int instance, int port, int sender,
                 StreamElement element);

  TopologySpec spec_;
  SinkFn sink_;
  SnapshotFn snapshot_;
  const size_t channel_capacity_;
  const size_t batch_size_;
  const bool use_spsc_rings_;
  EdgePushObserver edge_observer_;
  // tasks_[stage][instance]; empty for a chained stage.
  std::vector<std::vector<std::unique_ptr<Task>>> tasks_;
  internal::RuntimeTable runtimes_;
  std::vector<std::vector<internal::DownstreamEdge>> downstream_;
  std::vector<int> gid_base_;
  std::vector<std::unique_ptr<std::mutex>> input_mutexes_;
  std::mutex marker_mutex_;
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> poisoned_{false};
  mutable std::mutex failure_mutex_;
  Status failure_;  // guarded by failure_mutex_; first failure wins
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace astream::spe

#endif  // ASTREAM_SPE_RUNNER_H_
