#ifndef ASTREAM_CORE_ASTREAM_H_
#define ASTREAM_CORE_ASTREAM_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/admission.h"
#include "core/multiway_join.h"
#include "core/push_result.h"
#include "core/qos.h"
#include "core/query.h"
#include "core/router.h"
#include "core/shared_aggregation.h"
#include "core/shared_join.h"
#include "core/shared_selection.h"
#include "core/shared_session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spe/runner.h"

namespace astream::core {

/// The public entry point of the AStream library: one *shared* streaming
/// job that hosts an arbitrary, changing set of ad-hoc queries (Fig. 2).
///
/// Lifecycle:
///   1. Create(options) — pick a topology family and parallelism.
///   2. Start().
///   3. From ONE control thread: Push/PushWatermark data in event-time
///      order, Submit/Cancel queries, and Pump() to flush session batches
///      (markers are woven into the streams).
///   4. Results arrive on the result callback, tagged with their query id:
///      inline in sync mode; in threaded mode concurrently, on the task
///      thread that produced them (the selection task for selection
///      queries, the windowed task for windowed results), since the router
///      runs chained onto those tasks. The callback must be thread-safe.
///      They arrive in runs, one per router call: a run callback sees each
///      run whole; a per-row callback is called for each row of it.
///   5. FinishAndWait() or Stop().
class AStreamJob {
 public:
  /// The shared-topology families (Sec. 4: aggregation queries, join
  /// queries, complex pipelines of cascaded joins + aggregation) plus the
  /// flat n-ary multi-way join family over 2..5 streams (DESIGN.md §15).
  enum class TopologyKind { kAggregation, kJoin, kComplex, kMultiway };

  struct Options {
    TopologyKind topology = TopologyKind::kAggregation;
    /// External input streams (kMultiway only; 2..kMaxJoinDepth). Other
    /// topologies keep their fixed stream count (1 for kAggregation, 2 for
    /// kJoin and kComplex).
    int num_streams = 2;
    /// Instances per shared operator — the "cluster node" equivalent.
    int parallelism = 1;
    /// Threaded runner (benchmarks) vs. deterministic sync runner (tests).
    bool threaded = false;
    SharedSession::Config session;
    StoreMode initial_mode = StoreMode::kGrouped;
    bool adaptive_mode = true;
    /// Enable Fig. 18 overhead instrumentation.
    bool measure_overhead = false;
    /// Share predicate evaluation across queries via the selection's
    /// predicate index (see SharedSelection::Config).
    bool use_predicate_index = true;
    size_t channel_capacity = 1024;
    /// Threaded mode: route each internal (upstream-instance -> downstream-
    /// instance) edge through a lock-free SPSC ring instead of the mutex
    /// channel (external ingress always uses the mutex MPMC fallback).
    bool use_spsc_rings = true;
    /// Data-plane batch size. Pushed tuples are buffered per input stream
    /// and shipped as one ElementBatch (one channel lock, one operator
    /// dispatch) once `batch_size` tuples accumulated; operators batch
    /// their outputs to the same size. 1 = element-at-a-time (status quo).
    size_t batch_size = 1;
    /// Flush/linger policy for partially filled source batches: a buffer
    /// is flushed once the incoming event time has advanced this far past
    /// the buffer's first tuple, so latency-sensitive low-rate streams
    /// still drain promptly. Watermarks, changelog flushes, and checkpoint
    /// barriers always flush first (markers are batch boundaries).
    TimestampMs batch_linger_ms = 50;
    /// Join-stage count available for complex queries (1..kMaxJoinDepth).
    int max_join_stages = kMaxJoinDepth;
    Clock* clock = nullptr;  // defaults to WallClock
    /// Per-query metrics registry (counters, gauges, latency histograms).
    /// Disabled, instrumentation costs one predicted branch per record.
    bool enable_metrics = true;
    /// Structured lifecycle trace (submit → changelog flush → deploy ack →
    /// first result → cancel), exportable as JSON-lines.
    bool enable_trace = true;
    /// External checkpoint store surviving the job (crash recovery: the
    /// supervisor restores a *fresh* job from the old job's checkpoints).
    /// nullptr = the job owns a private store.
    spe::CheckpointStore* checkpoint_store = nullptr;
    /// First id TriggerCheckpoint() auto-assigns. A recovered job resumes
    /// numbering after the restored checkpoint so ids stay monotonic in
    /// the shared store.
    int64_t first_checkpoint_id = 1;
    /// Completed checkpoints kept in the store (older ones are pruned once
    /// a newer one completes); in-flight checkpoints are always kept.
    size_t checkpoint_retention = 2;
    /// Out-of-core state (DESIGN.md §10): when the resolved memory budget
    /// is > 0 the job creates a spill space + governor and the shared
    /// operators shed their coldest slices to disk under pressure (or, with
    /// allow_spill = false, Push reports kBackpressure instead).
    /// Default: ASTREAM_MEMORY_BUDGET from the environment, else unlimited
    /// (no storage engine, the pre-out-of-core behavior).
    storage::StorageOptions storage;
    /// Cross-window state sharing (DESIGN.md §12): shared arrangements with
    /// composition memos in the windowed operators plus factor-window
    /// rewriting in the slicer. Transparent to the Client API — outputs are
    /// byte-identical either way; off = the per-query-store reference mode.
    bool share_arrangements = true;
    /// Per-query isolation (DESIGN.md §14): SLO targets + admission
    /// control + de-sharing policy. Everything off by default.
    SloOptions slo;
    /// Per-query cost metering: attribute rows, trigger CPU time, and
    /// state bytes to the owning queries (`query.<id>.cost_*`). Implied
    /// by slo.enable_admission; requires enable_metrics.
    bool meter_costs = false;
  };

  using ResultCallback =
      std::function<void(QueryId, const spe::Record& record)>;
  /// Receives one run of results; each record's `channel` is its query id.
  using ResultRunCallback =
      std::function<void(std::span<const spe::Record> run)>;
  /// The run callback that calls `callback` for each row of a run, with
  /// the row's query id.
  static ResultRunCallback PerRow(ResultCallback callback);

  static Result<std::unique_ptr<AStreamJob>> Create(Options options);
  ~AStreamJob();

  AStreamJob(const AStreamJob&) = delete;
  AStreamJob& operator=(const AStreamJob&) = delete;

  Status Start();

  /// Data input (event-time order per stream). Stream 1 exists only for
  /// join/complex/multiway topologies; streams 2.. only on kMultiway jobs
  /// with that many streams. Returns kShutdown when the tuple was refused
  /// for good (job not started / finished / failed; no such stream),
  /// kBackpressure when a budget without spilling refused it, and
  /// kLateClamped when the event time was nudged onto the latest changelog
  /// marker (see PushResult).
  PushResult Push(int stream, TimestampMs event_time, spe::Row row);
  /// Advances the watermark on all input streams.
  void PushWatermark(TimestampMs watermark);

  /// Number of external input streams of this job's topology (0 before
  /// Start()).
  int NumInputStreams() const {
    return static_cast<int>(selection_stages_.size());
  }

  /// Submits an ad-hoc query (must match the topology family). The query
  /// goes live when its changelog batch deploys. Fails with
  /// FailedPrecondition before Start() or after FinishAndWait()/Stop().
  ///
  /// Under admission control (Options::slo) a submit may instead be
  /// *queued* (id assigned now, deploys when headroom returns — Pump()
  /// drains the queue) or *rejected* (kAdmissionRejected). Plain Submit
  /// returns the id for admitted AND queued queries; use
  /// SubmitWithOutcome to distinguish them.
  Result<QueryId> Submit(const QueryDescriptor& desc);
  /// Cancels an active or admission-queued query.
  Status Cancel(QueryId id);

  struct SubmitOutcome {
    QueryId id = -1;  // -1 iff rejected
    AdmissionDecision decision = AdmissionDecision::kAdmitted;
    double predicted_cost = 0;
    std::string reason;  // set for queued / rejected
  };
  /// Admission-aware submit: never fails on policy grounds, reports the
  /// decision instead. Validation errors still return a non-OK status.
  Result<SubmitOutcome> SubmitWithOutcome(const QueryDescriptor& desc);

  /// The admission controller (policy + cost model; see core/admission.h).
  AdmissionController& admission() { return admission_; }
  /// Queries waiting in the admission queue (control thread).
  size_t NumQueuedQueries() const { return admission_queue_.size(); }

  /// Cost metering (requires Options::meter_costs): per-query cost units
  /// accumulated since the previous call — rows ingested, microseconds of
  /// trigger CPU, and KiB of resident state. A recent-rate proxy shared by
  /// whale detection and the admission model's live refinement (each call
  /// feeds the observed shares back into the controller).
  std::map<QueryId, int64_t> MeteredCosts();

  /// Flushes due session batches into the streams; returns the number of
  /// changelogs injected. Call regularly from the control thread.
  int Pump(bool force = false);

  /// Blocks until every changelog that some router replica has applied is
  /// applied by all of them (the driver's ACK, Fig. 5). Sync mode:
  /// immediate.
  bool WaitForDeployment(TimestampMs timeout_ms = 10'000);

  /// Injects a checkpoint barrier; returns its id. State lands in
  /// checkpoints() once every instance snapshotted. The shared session's
  /// control-plane state (slot allocator, id/epoch counters) is captured
  /// too, so query ids stay consistent after recovery.
  ///
  /// `source_offsets` (source-log positions as of the barrier) are stored
  /// with the checkpoint for replay. `id` forces the checkpoint id (used
  /// when a recovery replay re-triggers logged checkpoints); 0 auto-assigns
  /// the next one. An explicit id advances the auto counter past it.
  int64_t TriggerCheckpoint(std::map<int, int64_t> source_offsets = {},
                            int64_t id = 0);
  /// Restores all operator AND session state from a completed checkpoint
  /// (call after Start, before any data).
  Status RestoreFrom(const spe::CheckpointStore::Checkpoint& checkpoint);

  /// Pseudo-stage index under which the session snapshot is stored.
  static constexpr int kSessionStateStage = -1;
  spe::CheckpointStore& checkpoints() { return *store_; }

  /// End-of-stream: flush pending batches, drain, join all tasks. Returns
  /// the first task failure if the run was poisoned (see Health()).
  Status FinishAndWait();
  /// Hard cancel. Also returns the first task failure, if any.
  Status Stop();

  /// First task failure captured by the runner (OK while healthy). A
  /// failed job stops accepting pushes (kShutdown) and must be recovered
  /// by restoring a fresh job from checkpoints() — see harness::SupervisedJob.
  Status Health() const;
  bool Failed() const;
  /// Marks the job failed from outside (watchdog-detected stall). The
  /// runner quiesces exactly as on an internal task failure.
  void DeclareFailed(const Status& status);
  /// Per-task liveness samples for stall detection (threaded mode; empty
  /// in sync mode, which cannot stall).
  std::vector<spe::ThreadedRunner::TaskHealthSample> TaskHealth() const;

  /// Installs the callback every result run goes to; replaces the last.
  void SetResultCallback(ResultRunCallback callback);
  /// Per-row callers: installs PerRow(callback).
  void SetResultCallback(ResultCallback callback);

  QosMonitor& qos() { return qos_; }
  const SharedSession& session() const { return session_; }
  /// The job's effective creation options (the isolation manager clones
  /// them for a de-shared whale's dedicated job).
  const Options& options() const { return options_; }

  /// Observability (see DESIGN.md "Observability"). The registry collects
  /// named counters/gauges/histograms plus per-query series; the trace
  /// sink collects lifecycle events. Both live as long as the job.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::TraceSink& trace() { return trace_; }
  const obs::TraceSink& trace() const { return trace_; }

  /// Samples the instantaneous gauges (per-stage records in/out, channel
  /// queue depths, active queries) into the registry, then snapshots it.
  obs::MetricsRegistry::Snapshot MetricsSnapshot();

  /// Aggregated operator instrumentation (Fig. 18 and observability).
  struct OperatorStats {
    int64_t queryset_nanos = 0;   // shared selections
    int64_t fanout_nanos = 0;     // routers (CoW fan-out, not data copies)
    int64_t bitset_ops = 0;       // shared joins + aggregations
    int64_t join_pairs_computed = 0;
    int64_t join_pairs_reused = 0;
    int64_t records_late = 0;
    int64_t selection_records_in = 0;
    int64_t selection_records_out = 0;
    int64_t router_records_out = 0;
    int64_t router_rows_shared = 0;  // fan-out rows shipped by reference
    int64_t router_rows_copied = 0;  // fan-out rows materialized fresh
    int64_t state_arena_bytes = 0;   // slice-store arena footprint
    int64_t reload_saves = 0;        // access-aware evictions avoiding a
                                     // reload (aggregation, multiway)
    int64_t arrange_memo_hits = 0;   // composed-block / join-pair memo hits
    int64_t arrange_memo_misses = 0;
    int64_t arrange_memo_bytes = 0;  // resident composed-block bytes
    int64_t factor_rewrites = 0;     // specs rewritten onto a new lattice
    int64_t factor_reuses = 0;       // specs attached to an existing lattice
    int64_t factor_fallbacks = 0;    // specs kept on exact per-query edges
    int64_t mjoin_chains_computed = 0;  // multiway chain prefixes evaluated
    int64_t mjoin_chains_reused = 0;    // multiway chain-memo hits
    int64_t subjoins_built = 0;      // multiway plans with no reusable prefix
    int64_t subjoins_attached = 0;   // plans attached to a materialized sub-join
    int64_t subjoin_nodes = 0;       // live refcounted sub-join nodes

    /// Field-wise sum (merging shards' stats).
    OperatorStats& operator+=(const OperatorStats& other);
  };
  OperatorStats CollectStats() const;

  /// Backpressure probe (threaded mode): queued elements across channels.
  size_t QueuedElements() const;

  /// Out-of-core internals (tests/benchmarks). Null when unbudgeted.
  storage::MemoryGovernor* governor() { return governor_.get(); }
  storage::SpillSpace* spill_space() { return spill_space_.get(); }
  /// Null when unbudgeted or compaction is disabled.
  storage::Compactor* compactor() { return compactor_.get(); }

 private:
  explicit AStreamJob(Options options);

  spe::TopologySpec BuildTopology();
  /// Admits queued queries while headroom lasts (front of queue first, so
  /// admission order is deterministic). Called from Pump().
  void MaybeAdmitQueued();
  /// Live fleet p99 event-time latency (ms) for admission decisions.
  double LiveP99() const;
  /// State-byte shares across the windowed operators (ops_mutex_).
  std::map<QueryId, int64_t> ComputeStateShares() const;
  /// Ships all buffered source tuples downstream as batches. Called before
  /// watermarks, markers, and shutdown — the batch-boundary rule.
  void FlushSourceBatches();
  void HandleSink(int stage, int instance, const spe::SinkOutput& output);
  /// Records QoS for a run of results and hands it to the callback.
  void DeliverRun(std::span<const spe::Record> run);
  Status ValidateQuery(const QueryDescriptor& desc) const;
  TimestampMs ClampToMarkers(TimestampMs event_time);

  Options options_;
  Clock* clock_;
  obs::MetricsRegistry metrics_;
  obs::TraceSink trace_;
  SharedSession session_;
  QosMonitor qos_;
  AdmissionController admission_;

  // Admission queue: descriptors deferred by the controller, in submit
  // order, with their pre-allocated ids (control thread only, like the
  // source batch formers).
  struct QueuedSubmit {
    QueryId id = -1;
    QueryDescriptor desc;
  };
  std::deque<QueuedSubmit> admission_queue_;
  // Previous cumulative per-query meter readings (MeteredCosts deltas).
  std::map<QueryId, int64_t> metered_prev_;

  // Facade-level cached metric pointers (lock-free recording).
  obs::Counter* m_push_accepted_ = nullptr;
  obs::Counter* m_push_clamped_ = nullptr;
  obs::Counter* m_push_backpressure_ = nullptr;
  obs::Counter* m_push_shutdown_ = nullptr;
  obs::Counter* m_admission_rejected_ = nullptr;
  obs::Counter* m_admission_queued_ = nullptr;
  obs::Histogram* m_deploy_latency_ = nullptr;
  // Per-stage `edge.<stage>.batch_size` histograms, indexed by stage;
  // recorded by the threaded runner's push observer.
  std::vector<obs::Histogram*> edge_batch_hists_;

  // Source-side batch formers, one per external input (control thread
  // only — the facade contract). `source_batch_start_[i]` is the event
  // time of the buffer's first tuple, for the linger policy.
  std::vector<spe::ElementBatch> source_batches_;
  std::vector<TimestampMs> source_batch_start_;
  spe::CheckpointStore checkpoint_store_;
  // Points at options_.checkpoint_store when set, else checkpoint_store_.
  spe::CheckpointStore* store_ = nullptr;
  // Out-of-core engine; both null when the job runs unbudgeted. Declared
  // before runner_: operators unregister from the governor as the runner
  // tears them down, so these must outlive it.
  std::unique_ptr<storage::SpillSpace> spill_space_;
  std::unique_ptr<storage::MemoryGovernor> governor_;
  std::unique_ptr<storage::Compactor> compactor_;
  std::unique_ptr<spe::Runner> runner_;

  /// The selection stage stream s (external input s) feeds (filled by
  /// BuildTopology).
  std::vector<int> selection_stages_;
  /// Instances the runner builds, chained router replicas included: the
  /// operator snapshots a checkpoint needs.
  size_t total_instances_ = 0;
  /// Router replicas: the acks a changelog needs to count as deployed.
  int router_instances_ = 0;

  // Raw operator pointers for stats; valid while runner_ lives.
  mutable std::mutex ops_mutex_;
  std::vector<SharedSelection*> selections_;
  std::vector<SharedJoin*> joins_;
  std::vector<SharedMultiwayJoin*> mjoins_;
  std::vector<SharedAggregation*> aggregations_;
  std::vector<RouterOperator*> routers_;

  // Session + deployment ack state.
  std::mutex session_mutex_;
  std::condition_variable ack_cv_;
  std::map<int64_t, int> epoch_acks_;  // changelog epoch -> replica acks
  int64_t next_mode_epoch_ = 1;
  int64_t next_checkpoint_epoch_ = 1;

  std::mutex callback_mutex_;
  /// Shared so the per-run lookup copies a pointer, not the function.
  std::shared_ptr<const ResultRunCallback> result_callback_;

  bool started_ = false;
  bool finished_ = false;
};

}  // namespace astream::core

#endif  // ASTREAM_CORE_ASTREAM_H_
