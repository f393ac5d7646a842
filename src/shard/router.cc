#include "shard/router.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/logging.h"

namespace astream::shard {

namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ShardRouter::ShardRouter(JobConfig config)
    : config_(std::move(config)),
      clock_(config_.job.clock != nullptr ? config_.job.clock
                                          : WallClock::Default()),
      admission_(config_.job.slo),
      router_metrics_(config_.job.enable_metrics),
      plan_(std::make_shared<const ShardPlan>(
          ShardPlan::Uniform(config_.shards, config_.slots))) {
  generations_.assign(static_cast<size_t>(config_.shards), 0);
}

ShardRouter::~ShardRouter() { Stop(); }

Result<std::unique_ptr<ShardRouter>> ShardRouter::Create(JobConfig config) {
  ASTREAM_ASSIGN_OR_RETURN(config, JobConfig::Validated(std::move(config)));
  return std::unique_ptr<ShardRouter>(new ShardRouter(std::move(config)));
}

Status ShardRouter::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  for (int i = 0; i < config_.shards; ++i) {
    AddEgressSlot(i);
    auto runtime = MakeRuntime(i, 0, nullptr);
    ASTREAM_RETURN_IF_ERROR(runtime->Start());
    InstallCallback(runtime.get(), i);
    shards_.push_back(std::move(runtime));
  }
  started_ = true;
  return Status::OK();
}

std::unique_ptr<ShardRuntime> ShardRouter::MakeRuntime(
    int index, int generation,
    std::shared_ptr<const spe::CheckpointStore::Checkpoint> restore_from) {
  ShardRuntime::Options opts;
  opts.index = index;
  opts.generation = generation;
  opts.config = config_;
  // Admission is enforced once, at the router: a shard-local gate could
  // reject on one shard and admit on another, leaving the deployment
  // half-registered. Per-query cost metering stays on in the shards (the
  // merged snapshot carries the series).
  opts.config.job.slo = core::SloOptions{};
  opts.restore_from = std::move(restore_from);
  return std::make_unique<ShardRuntime>(std::move(opts));
}

void ShardRouter::InstallCallback(ShardRuntime* runtime, int index) {
  // The job swaps its callback under its own mutex, so re-installing is
  // how SetResultCallback reaches a running shard.
  runtime->SetResultCallback(
      [this, slot = egress_[static_cast<size_t>(index)].get(),
       callback = user_callback_](std::span<const spe::Record> run) {
        Deliver(slot, callback, run);
      });
}

void ShardRouter::AddEgressSlot(int index) {
  auto slot = std::make_unique<EgressSlot>(index);
  slot->plan = plan_;
  egress_.push_back(std::move(slot));
}

void ShardRouter::PublishPlan(ShardPlan next) {
  plan_ = std::make_shared<const ShardPlan>(std::move(next));
  for (auto& slot : egress_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->plan = plan_;
  }
}

void ShardRouter::Deliver(EgressSlot* slot,
                          const core::AStreamJob::ResultCallback& callback,
                          std::span<const spe::Record> run) {
  // Ownership filter: every emitted row is keyed by column 0 (selections
  // pass the input row, joins emit the A side first, aggregations emit
  // Row{key, value}), so the key's current slot owner is the one shard
  // allowed to deliver it. After a split, both halves hold the full
  // pre-split state and both re-emit surviving windows — the filter
  // keeps exactly the owner's copy, which is what makes the merged
  // output byte-identical to an unsharded run.
  std::shared_ptr<const ShardPlan> plan;
  const auto owned = [&](const spe::Record& r) {
    return plan->OwnerOfKey(r.row.key()) == slot->index;
  };
  const TimestampMs now = clock_->NowMs();
  {
    std::lock_guard<std::mutex> lock(slot->mu);
    plan = slot->plan;  // filters the callbacks below too
    core::QosMonitor::Snapshot& tally = slot->tally;
    core::QueryId id = -1;
    int64_t count = 0;  // owned rows of `id` in the current stretch
    for (const spe::Record& r : run) {
      if (!owned(r)) continue;
      tally.event_time_latency.Add(now - r.event_time);
      if (r.channel != id) {
        if (count > 0) tally.outputs_per_query[id] += count;
        id = r.channel;
        count = 0;
      }
      ++count;
      ++tally.total_outputs;
    }
    if (count > 0) tally.outputs_per_query[id] += count;
  }
  if (!callback) return;
  for (const spe::Record& r : run) {
    if (owned(r)) callback(r.channel, r);
  }
}

core::PushResult ShardRouter::Push(StreamId stream, TimestampMs event_time,
                                   spe::Row row) {
  if (!started_) return core::PushResult::kShutdown;
  const int owner = plan_->OwnerOfKey(row.key());
  return shards_[static_cast<size_t>(owner)]->Push(stream, event_time,
                                                   std::move(row));
}

void ShardRouter::PushWatermark(TimestampMs watermark) {
  if (!started_) return;
  for (auto& shard : shards_) shard->PushWatermark(watermark);
}

Result<core::QueryId> ShardRouter::Submit(
    const core::QueryDescriptor& desc) {
  if (!started_) return Status::FailedPrecondition("router not started");
  {
    std::lock_guard<std::mutex> lock(poison_mu_);
    ASTREAM_RETURN_IF_ERROR(poisoned_);
  }
  if (admission_.enabled()) {
    const int64_t p99 = EgressLatency().Percentile(99);
    const core::AdmissionController::Decision d = admission_.Decide(
        desc, /*num_queued=*/0, static_cast<double>(p99));
    if (d.action != core::AdmissionDecision::kAdmitted) {
      // Reject-only at the router (no deployment-wide queue): a decision
      // the single-job gate would merely defer is refused here.
      if (router_metrics_.enabled()) {
        router_metrics_.GetCounter("admission.rejected")->Add();
      }
      return Status::AdmissionRejected(d.reason);
    }
  }
  QuiesceAll();
  std::vector<std::pair<int, core::QueryId>> applied;
  core::QueryId first_id = -1;
  Status failure = Status::OK();
  for (int i = 0; i < num_shards(); ++i) {
    Result<core::QueryId> id = shards_[static_cast<size_t>(i)]->Submit(desc);
    if (!id.ok()) {
      failure = id.status();
      break;
    }
    applied.emplace_back(i, *id);
    if (i == 0) {
      first_id = *id;
    } else if (*id != first_id) {
      // Same descriptor stream on deterministic sessions must assign the
      // same id everywhere; divergence means the shards' query registries
      // are out of sync — refuse and undo.
      failure = Status::Internal(
          "shard " + std::to_string(i) + " assigned query id " +
          std::to_string(*id) + ", shard 0 assigned " +
          std::to_string(first_id));
      break;
    }
  }
  if (failure.ok()) {
    admission_.OnAdmitted(first_id, desc);
    return first_id;
  }
  // Roll back every shard that accepted: the creation is still pending in
  // its session batch (the fan-out flushes nothing), so Cancel drops it
  // without a trace. A failed rollback leaves registries diverged — the
  // router is poisoned rather than half-registered.
  for (const auto& [idx, id] : applied) {
    const Status undo = shards_[static_cast<size_t>(idx)]->Cancel(id);
    if (!undo.ok()) {
      Poison(Status::Internal("submit rollback failed on shard " +
                              std::to_string(idx) + ": " +
                              undo.ToString()));
    }
  }
  return failure;
}

Status ShardRouter::Cancel(core::QueryId id) {
  if (!started_) return Status::FailedPrecondition("router not started");
  {
    std::lock_guard<std::mutex> lock(poison_mu_);
    ASTREAM_RETURN_IF_ERROR(poisoned_);
  }
  QuiesceAll();
  for (int i = 0; i < num_shards(); ++i) {
    const Status s = shards_[static_cast<size_t>(i)]->Cancel(id);
    if (s.ok()) continue;
    if (i == 0) return s;  // validation failure; nothing applied anywhere
    // A cancellation already buffered on earlier shards cannot be
    // withdrawn; diverging here poisons the deployment.
    const Status poison = Status::Internal(
        "cancel(" + std::to_string(id) + ") diverged on shard " +
        std::to_string(i) + ": " + s.ToString());
    Poison(poison);
    return poison;
  }
  admission_.OnCancelled(id);
  return Status::OK();
}

int ShardRouter::Pump(bool force) {
  if (!started_) return 0;
  QuiesceAll();
  int pumped = 0;
  for (int i = 0; i < num_shards(); ++i) {
    const int n = shards_[static_cast<size_t>(i)]->Pump(force);
    if (i == 0) pumped = n;
  }
  return pumped;
}

bool ShardRouter::WaitForDeployment(TimestampMs timeout_ms) {
  if (!started_) return false;
  bool ok = true;
  for (auto& shard : shards_) ok &= shard->WaitForDeployment(timeout_ms);
  return ok;
}

Status ShardRouter::Checkpoint() {
  if (!started_) return Status::FailedPrecondition("router not started");
  QuiesceAll();
  for (int i = 0; i < num_shards(); ++i) {
    if (shards_[static_cast<size_t>(i)]->CheckpointAndWait() == nullptr) {
      return Status::Internal("checkpoint failed on shard " +
                              std::to_string(i));
    }
  }
  return Status::OK();
}

Status ShardRouter::MoveShard(int shard) {
  if (!started_) return Status::FailedPrecondition("router not started");
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("no such shard");
  }
  const int64_t t0 = SteadyNowMs();
  auto cp = shards_[static_cast<size_t>(shard)]->DrainToCheckpoint();
  if (cp == nullptr) {
    return Status::Internal("drain of shard " + std::to_string(shard) +
                            " failed");
  }
  auto runtime =
      MakeRuntime(shard, ++generations_[static_cast<size_t>(shard)], cp);
  ASTREAM_RETURN_IF_ERROR(runtime->Start());
  InstallCallback(runtime.get(), shard);
  shards_[static_cast<size_t>(shard)] = std::move(runtime);
  // Ownership is unchanged; the version bump records the migration.
  PublishPlan(plan_->Moved(shard, shard));
  last_reshard_pause_ms_.store(SteadyNowMs() - t0,
                               std::memory_order_relaxed);
  return Status::OK();
}

Status ShardRouter::SplitShard(int shard) {
  if (!started_) return Status::FailedPrecondition("router not started");
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("no such shard");
  }
  if (plan_->SlotsOwnedBy(shard).size() < 2) {
    return Status::FailedPrecondition(
        "shard owns fewer than 2 slots; nothing to split");
  }
  const int64_t t0 = SteadyNowMs();
  const int new_shard = num_shards();
  auto cp = shards_[static_cast<size_t>(shard)]->DrainToCheckpoint();
  if (cp == nullptr) {
    return Status::Internal("drain of shard " + std::to_string(shard) +
                            " failed");
  }
  // Both halves restore the FULL pre-split state; the new plan (published
  // to every egress slot before either can emit) makes the egress filter
  // partition their emissions exactly.
  auto left =
      MakeRuntime(shard, ++generations_[static_cast<size_t>(shard)], cp);
  generations_.push_back(0);
  auto right = MakeRuntime(new_shard, 0, cp);
  AddEgressSlot(new_shard);
  PublishPlan(plan_->Split(shard, new_shard));
  ASTREAM_RETURN_IF_ERROR(left->Start());
  ASTREAM_RETURN_IF_ERROR(right->Start());
  InstallCallback(left.get(), shard);
  InstallCallback(right.get(), new_shard);
  shards_[static_cast<size_t>(shard)] = std::move(left);
  shards_.push_back(std::move(right));
  last_reshard_pause_ms_.store(SteadyNowMs() - t0,
                               std::memory_order_relaxed);
  return Status::OK();
}

Status ShardRouter::KillShard(int shard, const Status& why) {
  if (!started_) return Status::FailedPrecondition("router not started");
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("no such shard");
  }
  if (!config_.job.threaded) {
    return Status::FailedPrecondition(
        "sync engines cannot fail asynchronously; kill requires "
        "job.threaded");
  }
  // Quiesce first so the crash point is deterministic against the control
  // timeline: everything pushed before the kill is applied by the dying
  // incarnation (and thus covered by its source log), everything after is
  // first seen by the recovered one.
  QuiesceAll();
  shards_[static_cast<size_t>(shard)]->Kill(why);
  return Status::OK();
}

Status ShardRouter::FinishAndWait() {
  if (!started_) return Status::OK();
  Status first = Status::OK();
  for (auto& shard : shards_) {
    const Status s = shard->FinishAndWait();
    if (first.ok()) first = s;
  }
  {
    std::lock_guard<std::mutex> lock(poison_mu_);
    if (first.ok()) first = poisoned_;
  }
  return first;
}

Status ShardRouter::Stop() {
  Status first = Status::OK();
  for (auto& shard : shards_) {
    const Status s = shard->Stop();
    if (first.ok()) first = s;
  }
  return first;
}

Status ShardRouter::Health() const {
  {
    std::lock_guard<std::mutex> lock(poison_mu_);
    ASTREAM_RETURN_IF_ERROR(poisoned_);
  }
  for (const auto& shard : shards_) {
    ASTREAM_RETURN_IF_ERROR(shard->Health());
  }
  return Status::OK();
}

void ShardRouter::SetResultCallback(
    core::AStreamJob::ResultCallback callback) {
  user_callback_ = std::move(callback);
  for (int i = 0; i < num_shards(); ++i) {
    InstallCallback(shards_[static_cast<size_t>(i)].get(), i);
  }
}

obs::MetricsRegistry::Snapshot ShardRouter::MetricsSnapshot() {
  std::vector<obs::MetricsRegistry::Snapshot> snapshots;
  snapshots.reserve(shards_.size() + 1);
  for (auto& shard : shards_) snapshots.push_back(shard->MetricsSnapshot());
  if (router_metrics_.enabled() && admission_.enabled()) {
    router_metrics_.GetGauge("admission.active_queries")
        ->Set(static_cast<int64_t>(admission_.num_admitted()));
    snapshots.push_back(router_metrics_.TakeSnapshot());
  }
  return obs::MergeSnapshots(snapshots);
}

core::QosMonitor::Snapshot ShardRouter::QosSnapshot() {
  // Outputs come from the egress slots (recorded post-filter); deployment
  // latency comes from shard 0 — every shard acks the same changelog
  // timeline, so shard 0 speaks for the deployment and summing would
  // count each deployment N times.
  core::QosMonitor::Snapshot merged;
  for (auto& slot : egress_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    merged.total_outputs += slot->tally.total_outputs;
    for (const auto& [id, n] : slot->tally.outputs_per_query) {
      merged.outputs_per_query[id] += n;
    }
  }
  merged.event_time_latency = EgressLatency();
  if (!shards_.empty()) {
    core::QosMonitor::Snapshot s0 = shards_[0]->QosSnapshot();
    merged.deployment_latency = s0.deployment_latency;
    merged.deployment_events = std::move(s0.deployment_events);
  }
  return merged;
}

core::LatencyStats ShardRouter::EgressLatency() {
  core::LatencyStats merged;
  for (auto& slot : egress_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    merged.Merge(slot->tally.event_time_latency);
  }
  return merged;
}

core::AStreamJob::OperatorStats ShardRouter::CollectStats() const {
  core::AStreamJob::OperatorStats total;
  for (const auto& shard : shards_) total += shard->CollectStats();
  return total;
}

void ShardRouter::QuiesceAll() {
  // Barrier before any control fan-out: with every ring drained, no pump
  // thread is mid-recovery (a supervised replay pins the clock to logged
  // times), so the shards all observe the same "now" when they stamp and
  // flush the control operation.
  for (auto& shard : shards_) shard->QuiesceIngress();
}

void ShardRouter::Poison(const Status& status) {
  std::lock_guard<std::mutex> lock(poison_mu_);
  if (poisoned_.ok()) poisoned_ = status;
  ASTREAM_LOG(kWarn, "shard-router") << "poisoned: " << status.ToString();
}

}  // namespace astream::shard
