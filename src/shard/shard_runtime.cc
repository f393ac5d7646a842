#include "shard/shard_runtime.h"

#include <chrono>
#include <utility>

#include "common/logging.h"

namespace astream::shard {

namespace {

constexpr int64_t kCheckpointWaitMs = 10'000;

std::string DurableDirFor(const JobConfig& config, int index,
                          int generation) {
  if (config.state_dir.empty()) return "";
  return config.state_dir + "/shard-" + std::to_string(index) + ".g" +
         std::to_string(generation);
}

}  // namespace

ShardRuntime::ShardRuntime(Options options)
    : options_(std::move(options)) {}

ShardRuntime::~ShardRuntime() { Stop(); }

Status ShardRuntime::Start() {
  if (started_) return Status::FailedPrecondition("shard already started");
  const JobConfig& config = options_.config;
  if (config.supervised) {
    harness::SupervisedJob::Options opts;
    opts.job = config.job;
    opts.supervisor = config.supervisor;
    opts.start_watchdog = config.start_watchdog;
    opts.pin_clock = config.pin_clock;
    opts.durable_checkpoint_dir =
        DurableDirFor(config, options_.index, options_.generation);
    opts.restore_from = options_.restore_from;
    supervised_ = std::make_unique<harness::SupervisedJob>(std::move(opts));
    ASTREAM_RETURN_IF_ERROR(supervised_->Start());
  } else {
    ASTREAM_ASSIGN_OR_RETURN(plain_, core::AStreamJob::Create(config.job));
    ASTREAM_RETURN_IF_ERROR(plain_->Start());
    if (options_.restore_from != nullptr) {
      ASTREAM_RETURN_IF_ERROR(plain_->RestoreFrom(*options_.restore_from));
    }
  }
  if (config.shard_threads) {
    ring_ = std::make_unique<SpscQueue<Ingress>>(config.ingress_capacity);
    pump_ = std::thread([this] { PumpLoop(); });
  }
  started_ = true;
  return Status::OK();
}

core::PushResult ShardRuntime::Push(StreamId stream, TimestampMs t,
                                    spe::Row row) {
  if (!started_ || stopped_) return core::PushResult::kShutdown;
  if (ring_ == nullptr) {
    return ApplyPush(static_cast<int>(stream), t, std::move(row));
  }
  Ingress item;
  item.stream = static_cast<int>(stream);
  item.time = t;
  item.row = std::move(row);
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  if (!ring_->Push(std::move(item))) {
    enqueued_.fetch_sub(1, std::memory_order_relaxed);
    return core::PushResult::kShutdown;
  }
  // Asynchronous ack: the pump applies it in order; late clamps and
  // backpressure are absorbed shard-side.
  return core::PushResult::kAccepted;
}

void ShardRuntime::PushWatermark(TimestampMs wm) {
  if (!started_ || stopped_) return;
  if (ring_ == nullptr) {
    ApplyWatermark(wm);
    return;
  }
  Ingress item;
  item.stream = -1;
  item.time = wm;
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  if (!ring_->Push(std::move(item))) {
    enqueued_.fetch_sub(1, std::memory_order_relaxed);
  }
}

Result<core::QueryId> ShardRuntime::Submit(
    const core::QueryDescriptor& desc) {
  Quiesce();
  if (supervised_ != nullptr) return supervised_->Submit(desc);
  return plain_->Submit(desc);
}

Status ShardRuntime::Cancel(core::QueryId id) {
  Quiesce();
  if (supervised_ != nullptr) return supervised_->Cancel(id);
  return plain_->Cancel(id);
}

int ShardRuntime::Pump(bool force) {
  Quiesce();
  // Supervised shards flush changelogs only at Submit/Cancel boundaries
  // (SupervisedJob pumps there itself): replay reproduces exactly those
  // flush points, so an extra unlogged flush here would diverge.
  if (supervised_ != nullptr) return 0;
  return plain_->Pump(force);
}

bool ShardRuntime::WaitForDeployment(TimestampMs timeout_ms) {
  Quiesce();
  return job()->WaitForDeployment(timeout_ms);
}

std::shared_ptr<const spe::CheckpointStore::Checkpoint>
ShardRuntime::CheckpointAndWait() {
  Quiesce();
  spe::CheckpointStore* store = nullptr;
  int64_t id = -1;
  if (supervised_ != nullptr) {
    id = supervised_->Checkpoint();
    store = &supervised_->checkpoints();
  } else {
    if (plain_->Failed()) return nullptr;
    id = plain_->TriggerCheckpoint({{0, 0}}, 0);
    store = &plain_->checkpoints();
  }
  if (id < 0) return nullptr;
  // Threaded engines complete barriers asynchronously on task threads;
  // sync engines complete before TriggerCheckpoint returns.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kCheckpointWaitMs);
  while (std::chrono::steady_clock::now() < deadline) {
    auto cp = store->Get(id);
    if (cp != nullptr && cp->complete) return cp;
    if (supervised_ != nullptr && job()->Failed()) {
      // The engine died mid-barrier. Taking another supervised checkpoint
      // recovers the job and replays the log, re-triggering the logged
      // barrier `id` with its original id — so it still completes.
      if (supervised_->Checkpoint() < 0) return nullptr;
    } else if (supervised_ == nullptr && plain_->Failed()) {
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return nullptr;
}

std::shared_ptr<const spe::CheckpointStore::Checkpoint>
ShardRuntime::DrainToCheckpoint() {
  if (!started_ || stopped_) return nullptr;
  auto cp = CheckpointAndWait();
  if (cp == nullptr) return nullptr;
  (void)Stop();
  return cp;
}

Status ShardRuntime::FinishAndWait() {
  if (!started_ || stopped_) return Status::OK();
  CloseRing();  // drains everything enqueued, then the pump exits
  stopped_ = true;
  if (supervised_ != nullptr) return supervised_->FinishAndWait();
  return plain_->FinishAndWait();
}

Status ShardRuntime::Stop() {
  if (!started_ || stopped_) return Status::OK();
  CloseRing();
  stopped_ = true;
  if (supervised_ != nullptr) return supervised_->Stop();
  return plain_->Stop();
}

Status ShardRuntime::Health() const {
  if (job() == nullptr) return Status::FailedPrecondition("not started");
  return job()->Health();
}

bool ShardRuntime::Failed() const {
  return job() != nullptr && job()->Failed();
}

void ShardRuntime::Kill(const Status& why) {
  if (job() != nullptr) job()->DeclareFailed(why);
}

void ShardRuntime::SetResultCallback(
    core::AStreamJob::ResultCallback callback) {
  if (supervised_ != nullptr) {
    supervised_->SetResultCallback(std::move(callback));
  } else if (plain_ != nullptr) {
    plain_->SetResultCallback(std::move(callback));
  }
}

core::AStreamJob* ShardRuntime::job() {
  return supervised_ != nullptr ? supervised_->job() : plain_.get();
}

const core::AStreamJob* ShardRuntime::job() const {
  return supervised_ != nullptr ? supervised_->job() : plain_.get();
}

obs::MetricsRegistry::Snapshot ShardRuntime::MetricsSnapshot() {
  return job()->MetricsSnapshot();
}

core::QosMonitor::Snapshot ShardRuntime::QosSnapshot() {
  return job()->qos().TakeSnapshot();
}

core::AStreamJob::OperatorStats ShardRuntime::CollectStats() const {
  return job()->CollectStats();
}

void ShardRuntime::PumpLoop() {
  Ingress item;
  while (ring_->Pop(&item)) {
    if (item.stream < 0) {
      ApplyWatermark(item.time);
    } else {
      // Supervised shards log + recover inside the push; a poisoned
      // plain shard reports kShutdown, surfaced via Health().
      (void)ApplyPush(item.stream, item.time, std::move(item.row));
    }
    // Sequentially consistent pair with Quiesce's store-then-load: either
    // the quiescer sees this increment, or this load sees its target.
    const int64_t applied = applied_.fetch_add(1) + 1;
    if (applied >= quiesce_target_.load()) {
      // Taking the mutex orders the notify after the quiescer's wait.
      { std::lock_guard<std::mutex> lock(quiesce_mu_); }
      quiesce_cv_.notify_one();
    }
  }
}

void ShardRuntime::Quiesce() {
  if (ring_ == nullptr) return;
  // Single producer (the control thread — us): enqueued_ is stable here.
  const int64_t target = enqueued_.load(std::memory_order_relaxed);
  if (applied_.load() >= target) return;
  std::unique_lock<std::mutex> lock(quiesce_mu_);
  quiesce_target_.store(target);
  while (applied_.load() < target) {
    // The pump notifies once it applies the target item; the bounded wait
    // is only a fallback.
    quiesce_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
  quiesce_target_.store(kNoQuiescer);
}

core::PushResult ShardRuntime::ApplyPush(int stream, TimestampMs t,
                                         spe::Row row) {
  if (supervised_ != nullptr) {
    return supervised_->Push(stream, t, std::move(row));
  }
  return plain_->Push(stream, t, std::move(row));
}

void ShardRuntime::ApplyWatermark(TimestampMs wm) {
  if (supervised_ != nullptr) {
    supervised_->PushWatermark(wm);
  } else {
    plain_->PushWatermark(wm);
  }
}

void ShardRuntime::CloseRing() {
  if (ring_ == nullptr) return;
  ring_->Close();
  if (pump_.joinable()) pump_.join();
}

}  // namespace astream::shard
