#include "harness/supervised_job.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/logging.h"
#include "storage/durable_checkpoint.h"

namespace astream::harness {

namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SupervisedJob::SupervisedJob(Options options)
    : options_(std::move(options)),
      clock_(options_.job.clock != nullptr ? options_.job.clock
                                           : WallClock::Default()),
      stall_(options_.supervisor.stall_timeout_ms) {
  if (options_.durable_checkpoint_dir.empty()) {
    store_ = std::make_unique<spe::CheckpointStore>();
  } else {
    store_ = std::make_unique<storage::DurableCheckpointStore>(
        options_.durable_checkpoint_dir);
    // A previous process may have left durable checkpoints behind; keep
    // checkpoint ids monotonic across the restart.
    if (auto latest = store_->LatestComplete(); latest != nullptr) {
      next_checkpoint_id_ = latest->id + 1;
      last_reaped_checkpoint_ = latest->id;
    }
  }
  // Shard hand-off: seed the store with a checkpoint taken elsewhere,
  // unless it already holds something at least as new (a durable dir from
  // a previous incarnation wins — it may have progressed further).
  if (options_.restore_from != nullptr) {
    auto latest = store_->LatestComplete();
    if (latest == nullptr || latest->id < options_.restore_from->id) {
      const Status s =
          storage::ImportCheckpoint(store_.get(), *options_.restore_from);
      if (!s.ok()) {
        ASTREAM_LOG(kWarn, "supervised-job")
            << "restore_from import failed: " << s.ToString();
      }
    }
    if (auto imported = store_->LatestComplete(); imported != nullptr) {
      next_checkpoint_id_ = std::max(next_checkpoint_id_, imported->id + 1);
      last_reaped_checkpoint_ =
          std::max(last_reaped_checkpoint_, imported->id);
    }
  }
}

SupervisedJob::~SupervisedJob() {
  if (supervisor_ != nullptr) supervisor_->StopWatchdog();
}

Status SupervisedJob::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return Status::FailedPrecondition("already started");
  spe::Supervisor::Hooks hooks;
  hooks.tick = [this] { Tick(); };
  hooks.recover = [this](int attempt) { return RecoverLocked(attempt); };
  hooks.on_failure = [this](const Status& failure) {
    (void)failure;
    // Stamped into the failing incarnation's trace, where it happened.
    if (job_ != nullptr) {
      job_->trace().Record(obs::TraceEventKind::kFailureDetected, -1,
                           supervisor_->restart_attempts());
    }
  };
  hooks.on_recovered = [this](int attempts, int64_t latency_ms) {
    (void)attempts;
    job_->trace().Record(obs::TraceEventKind::kRecoveryDone, -1, latency_ms);
    ExportRecoveryMetricsLocked(latency_ms);
  };
  supervisor_ = std::make_unique<spe::Supervisor>(options_.supervisor,
                                                  std::move(hooks));
  ASTREAM_RETURN_IF_ERROR(StandUpJobLocked());
  // Process-restart recovery: a durable store may already hold completed
  // checkpoints from an earlier process over the same directory. Restore
  // the fresh job from the newest one before accepting any input.
  if (auto latest = store_->LatestComplete(); latest != nullptr) {
    ASTREAM_RETURN_IF_ERROR(job_->RestoreFrom(*latest));
    dedup_.OnRestore(latest->id);
    // The fresh (empty) source log must continue the *absolute* offset
    // space the restored checkpoint recorded, or the first recovery
    // before a new checkpoint would replay from an offset past every
    // newly logged entry.
    if (auto it = latest->source_offsets.find(0);
        it != latest->source_offsets.end()) {
      log_.StartAt(it->second);
    }
  }
  started_ = true;
  if (options_.start_watchdog) supervisor_->StartWatchdog();
  return Status::OK();
}

Status SupervisedJob::EnsureHealthyLocked() {
  if (job_ == nullptr) return Status::FailedPrecondition("not started");
  if (!job_->Failed()) return Status::OK();
  return supervisor_->RecoverNow(job_->Health());
}

core::PushResult SupervisedJob::Push(int stream, TimestampMs t,
                                     spe::Row row) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || finished_ || !EnsureHealthyLocked().ok() || stream < 0 ||
      stream >= job_->NumInputStreams()) {
    return core::PushResult::kShutdown;
  }
  log_.LogRecord(stream, t, row);
  core::PushResult r = job_->Push(stream, t, std::move(row));
  if (r == core::PushResult::kShutdown && job_->Failed()) {
    // The entry is logged: recovery replays it, so the push succeeded
    // from the caller's point of view.
    if (EnsureHealthyLocked().ok()) r = core::PushResult::kAccepted;
  }
  return r;
}

void SupervisedJob::PushWatermark(TimestampMs wm) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || finished_ || !EnsureHealthyLocked().ok()) return;
  log_.LogWatermark(wm);
  job_->PushWatermark(wm);
  if (job_->Failed()) (void)EnsureHealthyLocked();
}

Result<core::QueryId> SupervisedJob::Submit(
    const core::QueryDescriptor& desc) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || finished_) {
    return Status::FailedPrecondition("job not running");
  }
  // The wall stamp is captured BEFORE the health probe: a recovery there
  // replays the log and leaves the clock pinned at the last replayed
  // entry's time, so reading it afterwards would log (and flush) this
  // submission at a stale time — diverging marker times from a run that
  // never crashed. Re-pin after the probe for the same reason: the flush
  // below reads the live clock.
  const TimestampMs wall = clock_->NowMs();
  ASTREAM_RETURN_IF_ERROR(EnsureHealthyLocked());
  PinClock(wall);
  Result<core::QueryId> id = job_->Submit(desc);
  ASTREAM_RETURN_IF_ERROR(id.status());
  log_.LogSubmit(wall, desc, id.value());
  // Force the changelog out now: the deployment timeline must be a pure
  // function of the log so replay reproduces marker times exactly.
  job_->Pump(true);
  if (job_->Failed()) ASTREAM_RETURN_IF_ERROR(EnsureHealthyLocked());
  return id;
}

Status SupervisedJob::Cancel(core::QueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || finished_) {
    return Status::FailedPrecondition("job not running");
  }
  // Same wall-stamp discipline as Submit (see there).
  const TimestampMs wall = clock_->NowMs();
  ASTREAM_RETURN_IF_ERROR(EnsureHealthyLocked());
  PinClock(wall);
  ASTREAM_RETURN_IF_ERROR(job_->Cancel(id));
  log_.LogCancel(wall, id);
  job_->Pump(true);
  if (job_->Failed()) ASTREAM_RETURN_IF_ERROR(EnsureHealthyLocked());
  return Status::OK();
}

int64_t SupervisedJob::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || finished_) return -1;
  // Same wall-stamp discipline as Submit (see there).
  const TimestampMs wall = clock_->NowMs();
  if (!EnsureHealthyLocked().ok()) return -1;
  PinClock(wall);
  // The offset is taken BEFORE the checkpoint's own log entry: restoring
  // from this checkpoint replays from the entry itself (skipped, already
  // durable) and then the tail behind it.
  const int64_t offset = log_.EndOffset();
  const int64_t id = job_->TriggerCheckpoint({{0, offset}}, 0);
  next_checkpoint_id_ = std::max(next_checkpoint_id_, id + 1);
  log_.LogCheckpoint(wall, id, offset);
  if (job_->Failed() && !EnsureHealthyLocked().ok()) return -1;
  ReapCheckpointsLocked();
  return id;
}

Status SupervisedJob::FinishAndWait() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || finished_) return Status::OK();
  while (true) {
    ASTREAM_RETURN_IF_ERROR(EnsureHealthyLocked());
    const Status s = job_->FinishAndWait();
    if (s.ok()) break;
    // The drain itself hit a failure: recover (replay regenerates what the
    // dead job lost) and drain again.
    ASTREAM_RETURN_IF_ERROR(supervisor_->RecoverNow(s));
  }
  finished_ = true;
  ReapCheckpointsLocked();
  return Status::OK();
}

Status SupervisedJob::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || finished_) return Status::OK();
  finished_ = true;
  return job_->Stop();
}

void SupervisedJob::SetResultCallback(
    core::AStreamJob::ResultCallback callback) {
  auto shared = std::make_shared<const core::AStreamJob::ResultCallback>(
      std::move(callback));
  std::lock_guard<std::mutex> lock(cb_mu_);
  user_callback_ = std::move(shared);
}

int64_t SupervisedJob::replayed_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replayed_rows_;
}

int64_t SupervisedJob::replayed_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replayed_entries_;
}

Status SupervisedJob::StandUpJobLocked() {
  core::AStreamJob::Options opts = options_.job;
  opts.checkpoint_store = store_.get();
  opts.first_checkpoint_id = next_checkpoint_id_;
  auto job = core::AStreamJob::Create(opts);
  ASTREAM_RETURN_IF_ERROR(job.status());
  job_ = std::move(job).value();
  // Every delivery funnels through the exactly-once filter; the user
  // callback is looked up under its own lock (sink threads must never
  // contend with control ops that join them).
  job_->SetResultCallback([this](core::QueryId id, const spe::Record& r) {
    if (!dedup_.Admit(id, r)) return;
    std::shared_ptr<const core::AStreamJob::ResultCallback> cb;
    {
      std::lock_guard<std::mutex> lock(cb_mu_);
      cb = user_callback_;
    }
    if (cb != nullptr && *cb) (*cb)(id, r);
  });
  return job_->Start();
}

Status SupervisedJob::RecoverLocked(int attempt) {
  job_->trace().Record(obs::TraceEventKind::kRecoveryStart, -1, attempt);
  job_->Stop();  // joins all task threads: no deliveries race the restore
  std::shared_ptr<const spe::CheckpointStore::Checkpoint> checkpoint =
      store_->LatestComplete();
  int64_t restored_id = 0;
  int64_t replay_from = log_.first_offset();
  if (checkpoint != nullptr) {
    restored_id = checkpoint->id;
    auto it = checkpoint->source_offsets.find(0);
    if (it == checkpoint->source_offsets.end()) {
      return Status::Internal("checkpoint " + std::to_string(restored_id) +
                              " has no source offset");
    }
    replay_from = it->second;
  }
  // Everything delivered so far becomes "pending regeneration" for the
  // replay's dedup; with no checkpoint the whole log replays from scratch
  // (restored_id 0 keeps every pending entry).
  dedup_.OnRestore(restored_id);
  stall_.Reset();
  ASTREAM_RETURN_IF_ERROR(StandUpJobLocked());
  if (checkpoint != nullptr) {
    ASTREAM_RETURN_IF_ERROR(job_->RestoreFrom(*checkpoint));
  }
  ASTREAM_RETURN_IF_ERROR(ReplayLocked(replay_from, restored_id));
  (void)attempt;
  return job_->Health();
}

Status SupervisedJob::ReplayLocked(int64_t from, int64_t restored_id) {
  for (int64_t off = std::max(from, log_.first_offset());
       off < log_.EndOffset(); ++off) {
    const SourceLog::Entry& e = log_.At(off);
    switch (e.kind) {
      case SourceLog::Entry::kRecord:
        job_->Push(e.stream, e.time, e.row);
        ++replayed_rows_;
        break;
      case SourceLog::Entry::kWatermark:
        job_->PushWatermark(e.time);
        break;
      case SourceLog::Entry::kSubmit: {
        PinClock(e.wall_ms);
        Result<core::QueryId> id = job_->Submit(e.desc);
        ASTREAM_RETURN_IF_ERROR(id.status());
        if (id.value() != e.query_id) {
          // The restored session's id counter must reassign the original
          // ids or every downstream routing decision diverges.
          return Status::Internal(
              "replay assigned query id " + std::to_string(id.value()) +
              ", log recorded " + std::to_string(e.query_id));
        }
        job_->Pump(true);
        break;
      }
      case SourceLog::Entry::kCancel:
        PinClock(e.wall_ms);
        ASTREAM_RETURN_IF_ERROR(job_->Cancel(e.query_id));
        job_->Pump(true);
        break;
      case SourceLog::Entry::kCheckpoint:
        // Checkpoints at or below the restore point are already durable;
        // re-triggering one would overwrite the completed checkpoint we
        // just restored from — fatal if this replay crashes too.
        if (e.checkpoint_id <= restored_id) break;
        PinClock(e.wall_ms);
        job_->TriggerCheckpoint({{0, e.offset}}, e.checkpoint_id);
        next_checkpoint_id_ =
            std::max(next_checkpoint_id_, e.checkpoint_id + 1);
        break;
    }
    ++replayed_entries_;
    // A fault firing during replay poisons the fresh job too; report it so
    // the supervisor backs off and retries (the log is intact).
    if (job_->Failed()) return job_->Health();
  }
  return Status::OK();
}

void SupervisedJob::ReapCheckpointsLocked() {
  std::shared_ptr<const spe::CheckpointStore::Checkpoint> latest =
      store_->LatestComplete();
  if (latest == nullptr || latest->id <= last_reaped_checkpoint_) return;
  last_reaped_checkpoint_ = latest->id;
  // Outputs older than the completed checkpoint can never be regenerated:
  // drop them from the dedup filter and retire the covered log prefix.
  dedup_.OnCheckpointComplete(latest->id);
  auto it = latest->source_offsets.find(0);
  if (it != latest->source_offsets.end()) log_.TruncateBelow(it->second);
}

void SupervisedJob::ExportRecoveryMetricsLocked(int64_t latency_ms) {
  obs::MetricsRegistry& m = job_->metrics();
  if (!m.enabled()) return;
  m.GetGauge("recovery.count")->Set(supervisor_->recoveries());
  m.GetGauge("recovery.replayed_rows")->Set(replayed_rows_);
  m.GetGauge("recovery.replayed_entries")->Set(replayed_entries_);
  m.GetGauge("recovery.dedup_suppressed")
      ->Set(dedup_.duplicates_suppressed());
  m.GetHistogram("recovery.latency_ms")->Record(latency_ms);
}

void SupervisedJob::PinClock(TimestampMs wall_ms) {
  if (options_.pin_clock) options_.pin_clock(wall_ms);
}

void SupervisedJob::Tick() {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  // The control thread holds mu_ while active and detects failures itself
  // (a poisoned runner refuses its pushes); contending here would invert
  // the owner-lock -> supervisor-lock order.
  if (!lock.owns_lock()) return;
  if (!started_ || finished_ || job_ == nullptr) return;
  if (job_->Failed()) {
    (void)supervisor_->RecoverNow(job_->Health());
    return;
  }
  if (options_.supervisor.stall_timeout_ms > 0) {
    const Status s = stall_.Observe(job_->TaskHealth(), SteadyNowMs());
    if (!s.ok()) {
      ASTREAM_LOG(kWarn, "supervised-job")
          << "watchdog declared stall: " << s.ToString();
      job_->DeclareFailed(s);
      (void)supervisor_->RecoverNow(s);
    }
  }
}

}  // namespace astream::harness
