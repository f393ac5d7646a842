#include "core/isolation.h"

#include <chrono>
#include <thread>
#include <utility>

#include "core/window_math.h"

namespace astream::core {

IsolationManager::IsolationManager(AStreamJob* primary) : primary_(primary) {
  if (primary_->metrics().enabled()) {
    m_desharings_ = primary_->metrics().GetCounter("admission.desharings");
  }
  InstallPrimaryCallback();
}

IsolationManager::~IsolationManager() { TeardownDedicated(false); }

QueryId IsolationManager::InternalId(QueryId id) const {
  const auto it = internal_of_.find(id);
  return it == internal_of_.end() ? id : it->second;
}

QueryId IsolationManager::ExternalId(QueryId internal) const {
  const auto it = rewrite_.find(internal);
  return it == rewrite_.end() ? internal : it->second;
}

void IsolationManager::InstallPrimaryCallback() {
  primary_->SetResultCallback([this](QueryId channel,
                                     const spe::Record& record) {
    AStreamJob::ResultCallback cb;
    QueryId visible = channel;
    {
      std::lock_guard<std::mutex> lock(cb_mutex_);
      if (user_cb_ == nullptr) return;
      cb = user_cb_;
      const auto it = rewrite_.find(channel);
      if (it != rewrite_.end()) visible = it->second;
    }
    cb(visible, record);
  });
}

void IsolationManager::SetResultCallback(AStreamJob::ResultCallback callback) {
  std::lock_guard<std::mutex> lock(cb_mutex_);
  user_cb_ = std::move(callback);
}

Result<QueryId> IsolationManager::Submit(const QueryDescriptor& desc) {
  ASTREAM_ASSIGN_OR_RETURN(AStreamJob::SubmitOutcome outcome,
                           SubmitWithOutcome(desc));
  if (outcome.decision == AdmissionDecision::kRejected) {
    return Status::AdmissionRejected(outcome.reason);
  }
  return outcome.id;
}

Result<AStreamJob::SubmitOutcome> IsolationManager::SubmitWithOutcome(
    const QueryDescriptor& desc) {
  ASTREAM_ASSIGN_OR_RETURN(AStreamJob::SubmitOutcome outcome,
                           primary_->SubmitWithOutcome(desc));
  if (outcome.decision != AdmissionDecision::kRejected) {
    descs_[outcome.id] = desc;
  }
  return outcome;
}

Status IsolationManager::Cancel(QueryId id) {
  if (id == whale_ && dedicated_ != nullptr) {
    // Cancelling the whale itself ends the migration: its windows ending
    // at or before the deletion marker drain from the dedicated job.
    ASTREAM_RETURN_IF_ERROR(dedicated_->Cancel(whale_internal_));
    dedicated_->Pump(true);
    if (readmit_id_ != -1) {
      // Abandon a hand-back in flight: the re-admitted copy dies too.
      (void)primary_->Cancel(readmit_id_);
    }
    TeardownDedicated(/*drain=*/true);
    descs_.erase(id);
    internal_of_.erase(id);
    std::lock_guard<std::mutex> lock(cb_mutex_);
    split_time_ = kMinTimestamp;
    handover_end_ = kMaxTimestamp;
    whale_ = -1;
    whale_internal_ = -1;
    readmit_id_ = -1;
    whale_origin_ = kMinTimestamp;
    return Status::OK();
  }
  const QueryId iid = InternalId(id);
  ASTREAM_RETURN_IF_ERROR(primary_->Cancel(iid));
  descs_.erase(id);
  internal_of_.erase(id);
  // rewrite_ stays: the cancelled query's draining windows still arrive
  // on the internal channel and must reach the client under its id.
  return Status::OK();
}

PushResult IsolationManager::Push(int stream, TimestampMs event_time,
                                  spe::Row row) {
  if (dedicated_ != nullptr) dedicated_->Push(stream, event_time, row);
  return primary_->Push(stream, event_time, std::move(row));
}

void IsolationManager::PushWatermark(TimestampMs watermark) {
  last_watermark_ = watermark;
  primary_->PushWatermark(watermark);
  if (dedicated_ != nullptr) dedicated_->PushWatermark(watermark);
  MaybeArmHandover();
  TimestampMs boundary;
  {
    std::lock_guard<std::mutex> lock(cb_mutex_);
    boundary = handover_end_;
  }
  if (readmit_id_ != -1 && boundary != kMaxTimestamp &&
      watermark >= boundary) {
    FinishHandback();
  }
}

int IsolationManager::Pump(bool force) {
  int injected = primary_->Pump(force);
  if (dedicated_ != nullptr) injected += dedicated_->Pump(force);
  return injected;
}

Status IsolationManager::Maintain() {
  const SloOptions& slo = primary_->options().slo;
  if (dedicated_ == nullptr) {
    if (!slo.enable_desharing) return Status::OK();
    // Whale detection: the costliest time-windowed query, by recent
    // metered cost, once it dominates a busy-enough fleet while the p99
    // target (if any) is violated.
    const std::map<QueryId, int64_t> costs = primary_->MeteredCosts();
    int64_t total = 0;
    for (const auto& [id, cost] : costs) total += cost;
    if (total <= 0 || total < slo.whale_min_cost) return Status::OK();
    if (slo.p99_event_latency_ms > 0) {
      const int64_t p99 =
          primary_->qos().TakeSnapshot().event_time_latency.Percentile(99);
      if (p99 < slo.p99_event_latency_ms) return Status::OK();
    }
    QueryId fattest = -1;
    int64_t fattest_cost = 0;
    for (const auto& [iid, cost] : costs) {
      const QueryId ext = ExternalId(iid);
      const auto it = descs_.find(ext);
      if (it == descs_.end()) continue;
      if (!it->second.HasWindow() || !it->second.window.IsTimeWindow()) {
        continue;  // only windowed queries migrate (checkpointed state)
      }
      if (cost > fattest_cost) {
        fattest_cost = cost;
        fattest = ext;
      }
    }
    if (fattest == -1 ||
        static_cast<double>(fattest_cost) < slo.whale_cost_fraction * total) {
      return Status::OK();
    }
    return EjectWhale(fattest);
  }

  MaybeArmHandover();
  TimestampMs boundary;
  {
    std::lock_guard<std::mutex> lock(cb_mutex_);
    boundary = handover_end_;
  }
  if (readmit_id_ != -1) {
    if (boundary != kMaxTimestamp && last_watermark_ >= boundary) {
      FinishHandback();
    }
    return Status::OK();
  }
  if (slo.auto_readmit) {
    // Hand back once the whale's recent metered cost share cooled down.
    const std::map<QueryId, int64_t> shared = primary_->MeteredCosts();
    const std::map<QueryId, int64_t> own = dedicated_->MeteredCosts();
    const auto it = own.find(whale_internal_);
    const int64_t whale_cost = it == own.end() ? 0 : it->second;
    int64_t total = whale_cost;
    for (const auto& [id, cost] : shared) total += cost;
    if (total > 0 && static_cast<double>(whale_cost) <
                         slo.readmit_cost_fraction * total) {
      return BeginReadmit();
    }
  }
  return Status::OK();
}

Status IsolationManager::WaitForCheckpoint(
    int64_t id,
    std::shared_ptr<const spe::CheckpointStore::Checkpoint>* out) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    std::shared_ptr<const spe::CheckpointStore::Checkpoint> snap =
        primary_->checkpoints().Get(id);
    if (snap != nullptr && snap->complete) {
      *out = std::move(snap);
      return Status::OK();
    }
    if (!primary_->Health().ok()) return primary_->Health();
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::Internal("de-sharing checkpoint did not complete");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Status IsolationManager::EjectWhale(QueryId id) {
  if (dedicated_ != nullptr) {
    return Status::FailedPrecondition("a whale is already de-shared");
  }
  const auto it = descs_.find(id);
  if (it == descs_.end()) {
    return Status::NotFound("unknown query id (submit through the manager)");
  }
  const QueryDescriptor desc = it->second;
  if (!desc.HasWindow() || !desc.window.IsTimeWindow()) {
    return Status::InvalidArgument(
        "only time-windowed queries can be de-shared");
  }
  const QueryId iid = InternalId(id);

  // 1. Flush everything buffered, then checkpoint the shared plan. The
  // whale's lattice anchor survives the round trip via align_origin.
  primary_->Pump(true);
  TimestampMs origin = desc.align_origin != kMinTimestamp
                           ? desc.align_origin
                           : primary_->session().CreatedAt(iid);
  if (origin == kMinTimestamp) {
    return Status::FailedPrecondition("query has not deployed yet");
  }
  const int64_t ckpt = primary_->TriggerCheckpoint();
  std::shared_ptr<const spe::CheckpointStore::Checkpoint> snap;
  ASTREAM_RETURN_IF_ERROR(WaitForCheckpoint(ckpt, &snap));

  // 2. Cancel the whale in the shared plan. Windows ending at or before
  // the cancel marker D1 still drain there (deletion semantics), so the
  // dedicated egress only passes ends after D1.
  ASTREAM_RETURN_IF_ERROR(primary_->Cancel(iid));
  primary_->Pump(true);
  const TimestampMs d1 = primary_->session().last_marker_time();

  // 3. A dedicated job from the same options: admission off, metering on
  // (re-admission watches it), private checkpoint store and spill dir,
  // the same clock so both sides share one notion of now.
  AStreamJob::Options opts = primary_->options();
  opts.slo = SloOptions{};
  opts.enable_metrics = true;
  opts.meter_costs = true;
  opts.checkpoint_store = nullptr;
  ASTREAM_ASSIGN_OR_RETURN(dedicated_, AStreamJob::Create(std::move(opts)));
  Status s = dedicated_->Start();
  if (s.ok()) s = dedicated_->RestoreFrom(*snap);
  if (s.ok()) {
    // 4. The dedicated job hosts only the whale: cancel every restored
    // minnow (their draining output is filtered out at the egress).
    for (const QueryId qid : dedicated_->session().ActiveIds()) {
      if (qid == iid) continue;
      s = dedicated_->Cancel(qid);
      if (!s.ok()) break;
    }
  }
  if (!s.ok()) {
    TeardownDedicated(/*drain=*/false);
    return s;
  }
  dedicated_->Pump(true);

  {
    std::lock_guard<std::mutex> lock(cb_mutex_);
    split_time_ = d1;
    handover_end_ = kMaxTimestamp;
    whale_ = id;
    whale_internal_ = iid;
    readmit_id_ = -1;
  }
  whale_origin_ = origin;
  dedicated_->SetResultCallback(
      [this](QueryId channel, const spe::Record& record) {
        AStreamJob::ResultCallback cb;
        QueryId visible = -1;
        {
          std::lock_guard<std::mutex> lock(cb_mutex_);
          if (channel != whale_internal_ || user_cb_ == nullptr) return;
          // Window end = result time + 1. The dedicated job owns exactly
          // the whale windows ending after the split and (once a hand-back
          // is armed) at or before the hand-over boundary.
          const TimestampMs end = record.event_time + 1;
          if (end <= split_time_ || end > handover_end_) return;
          cb = user_cb_;
          visible = whale_;
        }
        cb(visible, record);
      });
  ++desharings_;
  if (m_desharings_ != nullptr) m_desharings_->Add();
  return Status::OK();
}

Status IsolationManager::BeginReadmit() {
  if (dedicated_ == nullptr) {
    return Status::FailedPrecondition("no de-shared whale");
  }
  if (readmit_id_ != -1) {
    return Status::FailedPrecondition("hand-back already in progress");
  }
  QueryDescriptor desc = descs_[whale_];
  // Re-anchor the window lattice on the whale's original grid so the
  // shared plan's first window continues exactly where the dedicated
  // job's coverage will stop.
  desc.align_origin = whale_origin_;
  ASTREAM_ASSIGN_OR_RETURN(AStreamJob::SubmitOutcome outcome,
                           primary_->SubmitWithOutcome(desc));
  if (outcome.decision == AdmissionDecision::kRejected) {
    return Status::AdmissionRejected("re-admission rejected: " +
                                     outcome.reason);
  }
  {
    std::lock_guard<std::mutex> lock(cb_mutex_);
    readmit_id_ = outcome.id;
  }
  descs_[whale_] = desc;
  primary_->Pump(true);
  MaybeArmHandover();
  return Status::OK();
}

void IsolationManager::MaybeArmHandover() {
  if (readmit_id_ == -1) return;
  {
    std::lock_guard<std::mutex> lock(cb_mutex_);
    if (handover_end_ != kMaxTimestamp) return;  // already armed
  }
  // Until the re-admission deploys (it may sit in the admission queue),
  // the boundary is unknown and the dedicated job keeps covering.
  const TimestampMs deployed_at = primary_->session().CreatedAt(readmit_id_);
  if (deployed_at == kMinTimestamp) return;
  const QueryDescriptor& desc = descs_[whale_];
  const TimestampMs first_start =
      AlignForward(deployed_at, whale_origin_, desc.window.slide);
  // First shared window is [A, A + length); the dedicated job owns ends
  // up to and including B = A + length - slide (lattice-adjacent).
  const TimestampMs boundary = first_start + desc.window.length -
                               desc.window.slide;
  {
    std::lock_guard<std::mutex> lock(cb_mutex_);
    handover_end_ = boundary;
    rewrite_[readmit_id_] = whale_;
  }
  internal_of_[whale_] = readmit_id_;
  if (last_watermark_ >= boundary) FinishHandback();
}

void IsolationManager::FinishHandback() {
  if (dedicated_ == nullptr) return;
  TeardownDedicated(/*drain=*/true);
  std::lock_guard<std::mutex> lock(cb_mutex_);
  split_time_ = kMinTimestamp;
  handover_end_ = kMaxTimestamp;
  whale_ = -1;
  whale_internal_ = -1;
  readmit_id_ = -1;
  whale_origin_ = kMinTimestamp;
}

void IsolationManager::TeardownDedicated(bool drain) {
  if (dedicated_ == nullptr) return;
  if (drain) {
    (void)dedicated_->FinishAndWait();
  } else {
    (void)dedicated_->Stop();
  }
  dedicated_.reset();
}

}  // namespace astream::core
