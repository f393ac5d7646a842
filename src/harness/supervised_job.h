#ifndef ASTREAM_HARNESS_SUPERVISED_JOB_H_
#define ASTREAM_HARNESS_SUPERVISED_JOB_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "core/astream.h"
#include "core/recovery.h"
#include "harness/source_log.h"
#include "spe/supervisor.h"

namespace astream::harness {

/// A crash-supervised AStreamJob with the full exactly-once recovery loop
/// of Sec. 3.3, hardened for ad-hoc query churn and repeated failures:
///
///   - Durable pieces that outlive any one job incarnation: the SourceLog
///     (data AND control-plane timeline), the CheckpointStore, and the
///     EpochOutputDedup output filter.
///   - Failure detection: synchronously on the control thread (a poisoned
///     runner refuses pushes), or via the Supervisor's watchdog thread
///     (poison probe + heartbeat stall detection).
///   - Recovery: stop the dead job, restore a *fresh* job from
///     CheckpointStore::LatestComplete(), replay the log tail — including
///     re-submitting/cancelling queries (same ids: the restored session's
///     id counter is deterministic) and re-triggering logged checkpoints
///     with their original ids — while the dedup filter suppresses outputs
///     the pre-crash run already delivered. Capped exponential backoff,
///     then terminal.
///
/// Single control thread (like AStreamJob); result callbacks arrive on
/// sink threads in threaded mode. Submit/Cancel force an immediate
/// changelog flush (Pump(true)) so the deployment timeline is fully
/// captured by the log and reproduces under replay.
class SupervisedJob {
 public:
  struct Options {
    core::AStreamJob::Options job;
    spe::Supervisor::Options supervisor;
    /// Run the watchdog thread. Off by default: the control thread
    /// detects failures synchronously via refused pushes, which keeps
    /// tests deterministic; the watchdog adds detection when the control
    /// thread is idle plus heartbeat stall detection.
    bool start_watchdog = false;
    /// Re-pins the job's clock during replay (wire to ManualClock::SetMs
    /// in tests so replayed changelog/barrier marker times reproduce
    /// exactly). Null with a wall clock: replay runs at wall time.
    std::function<void(TimestampMs)> pin_clock;
    /// Non-empty: checkpoints are persisted to this directory as run
    /// files (storage::DurableCheckpointStore) instead of staying in RAM,
    /// so a SupervisedJob constructed over the same directory after a
    /// *process* restart recovers from the last durably completed
    /// checkpoint. Empty: RAM store (crash-in-process recovery only).
    std::string durable_checkpoint_dir;
    /// Non-null: a completed checkpoint taken by *another* SupervisedJob
    /// (shard hand-off during live resharding, or a previous process) to
    /// restore from at Start. It is imported into this job's checkpoint
    /// store first — durable stores persist it immediately — so in-process
    /// recoveries and process restarts both find it; ignored when the
    /// store already holds a newer completed checkpoint. The source log
    /// starts at the checkpoint's source offset, keeping replay offsets
    /// absolute across the hand-off.
    std::shared_ptr<const spe::CheckpointStore::Checkpoint> restore_from;
  };

  explicit SupervisedJob(Options options);
  ~SupervisedJob();

  SupervisedJob(const SupervisedJob&) = delete;
  SupervisedJob& operator=(const SupervisedJob&) = delete;

  Status Start();

  /// Data input; logged, then pushed. A push refused because the job just
  /// failed triggers recovery inline — the entry is already in the log, so
  /// the replay delivers it and the push reports accepted.
  core::PushResult Push(int stream, TimestampMs t, spe::Row row);
  void PushWatermark(TimestampMs wm);

  /// Ad-hoc churn; logged with the assigned id + wall time for replay.
  Result<core::QueryId> Submit(const core::QueryDescriptor& desc);
  Status Cancel(core::QueryId id);

  /// Takes a checkpoint covering the current log offset; returns its id,
  /// or -1 if the job is terminally failed.
  int64_t Checkpoint();

  /// Drains the job; recovers and retries if a failure interrupts the
  /// drain. Returns the terminal status if recovery is exhausted.
  Status FinishAndWait();
  Status Stop();

  /// Deliveries are filtered through the exactly-once dedup before
  /// reaching this callback (sink threads in threaded mode).
  void SetResultCallback(core::AStreamJob::ResultCallback callback);

  /// The current job incarnation (replaced by every recovery).
  core::AStreamJob* job() { return job_.get(); }
  SourceLog& log() { return log_; }
  spe::CheckpointStore& checkpoints() { return *store_; }
  const spe::Supervisor* supervisor() const { return supervisor_.get(); }
  const core::EpochOutputDedup& dedup() const { return dedup_; }

  int64_t recoveries() const {
    return supervisor_ == nullptr ? 0 : supervisor_->recoveries();
  }
  int64_t replayed_rows() const;
  int64_t replayed_entries() const;

 private:
  /// Recovers if the current job is poisoned. mu_ must be held.
  Status EnsureHealthyLocked();
  /// One recovery attempt (Supervisor::Hooks::recover). mu_ must be held.
  Status RecoverLocked(int attempt);
  /// Replays log entries [from, end); skips checkpoints <= restored_id
  /// (they are already durable — re-snapshotting would overwrite the very
  /// checkpoint being restored from, fatal on a second crash mid-replay).
  Status ReplayLocked(int64_t from, int64_t restored_id);
  /// Creates + starts a fresh job sharing the durable checkpoint store.
  Status StandUpJobLocked();
  /// Checkpoint-complete housekeeping: prune the dedup filter and truncate
  /// the log below the latest complete checkpoint's offset.
  void ReapCheckpointsLocked();
  void ExportRecoveryMetricsLocked(int64_t latency_ms);
  void PinClock(TimestampMs wall_ms);
  /// Watchdog probe (watchdog thread; try-locks mu_ and skips when the
  /// control thread is active — it detects failures itself).
  void Tick();

  Options options_;
  Clock* clock_;

  mutable std::mutex mu_;
  SourceLog log_;
  // RAM store by default; DurableCheckpointStore when
  // options_.durable_checkpoint_dir is set.
  std::unique_ptr<spe::CheckpointStore> store_;
  core::EpochOutputDedup dedup_;
  spe::StallDetector stall_;
  std::unique_ptr<spe::Supervisor> supervisor_;
  std::unique_ptr<core::AStreamJob> job_;
  int64_t next_checkpoint_id_ = 1;
  int64_t last_reaped_checkpoint_ = 0;
  int64_t replayed_rows_ = 0;
  int64_t replayed_entries_ = 0;
  bool started_ = false;
  bool finished_ = false;

  // Separate from mu_: the dedup wrapper runs on sink threads and must
  // never contend with a control-thread op that joins those threads.
  // Shared so the per-row lookup copies a pointer, not the function.
  std::mutex cb_mu_;
  std::shared_ptr<const core::AStreamJob::ResultCallback> user_callback_;
};

}  // namespace astream::harness

#endif  // ASTREAM_HARNESS_SUPERVISED_JOB_H_
