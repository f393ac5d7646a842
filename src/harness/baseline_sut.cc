#include "harness/baseline_sut.h"

#include <chrono>

#include "common/logging.h"
#include "spe/operators.h"

namespace astream::harness {

using core::QueryDescriptor;
using core::QueryId;
using core::QueryKind;

BaselineSut::BaselineSut(Config config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock
                                     : WallClock::Default()) {}

BaselineSut::~BaselineSut() { Stop(); }

Status BaselineSut::Start() {
  started_ = true;
  deploy_thread_ = std::thread([this] { DeployWorker(); });
  return Status::OK();
}

Result<std::shared_ptr<spe::Runner>> BaselineSut::BuildJob(
    QueryId id, const QueryDescriptor& desc) {
  spe::TopologySpec spec;
  const int par = config_.parallelism;
  const TimestampMs origin = clock_->NowMs();

  auto filter_factory = [](const std::vector<core::Predicate>& preds) {
    return [preds](int) -> std::unique_ptr<spe::Operator> {
      return std::make_unique<spe::FilterOperator>(
          [preds](const spe::Row& row) {
            return core::EvalConjunction(preds, row);
          });
    };
  };

  int last_stage = -1;
  switch (desc.kind) {
    case QueryKind::kMultiJoin:
      // The Flink-style baseline is wired for the paper's two-stream
      // workloads; micro_mjoin's per-query mode uses dedicated AStreamJobs.
      return Status::InvalidArgument(
          "baseline SUT does not build multiway-join jobs");
    case QueryKind::kSelection: {
      spe::StageSpec filter;
      filter.name = "filter";
      filter.parallelism = par;
      filter.factory = filter_factory(desc.select_a);
      filter.is_sink = true;
      last_stage = spec.AddStage(std::move(filter));
      spec.AddExternalInput({"a", last_stage, 0, spe::Partitioning::kHash});
      break;
    }
    case QueryKind::kAggregation: {
      spe::StageSpec filter;
      filter.name = "filter";
      filter.parallelism = par;
      filter.factory = filter_factory(desc.select_a);
      const int s_filter = spec.AddStage(std::move(filter));
      spec.AddExternalInput({"a", s_filter, 0, spe::Partitioning::kHash});

      spe::StageSpec agg;
      agg.name = "window-agg";
      agg.parallelism = par;
      agg.is_sink = true;
      agg.factory = [desc, origin](int) -> std::unique_ptr<spe::Operator> {
        return std::make_unique<spe::WindowAggregateOperator>(
            desc.window, desc.agg, origin);
      };
      agg.inputs = {{s_filter, 0, spe::Partitioning::kHash}};
      last_stage = spec.AddStage(std::move(agg));
      break;
    }
    case QueryKind::kJoin:
    case QueryKind::kComplex: {
      spe::StageSpec fa;
      fa.name = "filter-a";
      fa.parallelism = par;
      fa.factory = filter_factory(desc.select_a);
      const int s_fa = spec.AddStage(std::move(fa));
      spec.AddExternalInput({"a", s_fa, 0, spe::Partitioning::kHash});

      spe::StageSpec fb;
      fb.name = "filter-b";
      fb.parallelism = par;
      fb.factory = filter_factory(desc.select_b);
      const int s_fb = spec.AddStage(std::move(fb));
      spec.AddExternalInput({"b", s_fb, 0, spe::Partitioning::kHash});

      const int depth =
          desc.kind == QueryKind::kJoin ? 1 : desc.join_depth;
      int left = s_fa;
      for (int k = 0; k < depth; ++k) {
        spe::StageSpec join;
        join.name = "window-join-" + std::to_string(k + 1);
        join.parallelism = par;
        join.num_ports = 2;
        join.factory = [desc, origin](int) -> std::unique_ptr<spe::Operator> {
          return std::make_unique<spe::WindowJoinOperator>(desc.window,
                                                           origin);
        };
        join.inputs = {{left, 0, spe::Partitioning::kHash},
                       {s_fb, 1, spe::Partitioning::kHash}};
        left = spec.AddStage(std::move(join));
      }
      if (desc.kind == QueryKind::kComplex) {
        spe::StageSpec agg;
        agg.name = "window-agg";
        agg.parallelism = par;
        agg.is_sink = true;
        agg.factory = [desc, origin](int) -> std::unique_ptr<spe::Operator> {
          return std::make_unique<spe::WindowAggregateOperator>(
              desc.window, desc.agg, origin);
        };
        agg.inputs = {{left, 0, spe::Partitioning::kHash}};
        last_stage = spec.AddStage(std::move(agg));
      } else {
        // Mark the final join stage as the sink.
        last_stage = left;
      }
      break;
    }
  }
  if (desc.kind == QueryKind::kJoin) {
    // The join stage was added without is_sink; rebuild is awkward, so the
    // sink flag is set via a wrapper stage instead: a pass-through sink.
    spe::StageSpec sink;
    sink.name = "sink";
    sink.parallelism = par;
    sink.is_sink = true;
    sink.factory = [](int) -> std::unique_ptr<spe::Operator> {
      return std::make_unique<spe::PassThroughOperator>();
    };
    sink.inputs = {{last_stage, 0, spe::Partitioning::kHash}};
    spec.AddStage(std::move(sink));
  }

  auto sink_fn = [this, id](int stage, int instance,
                            const spe::StreamElement& el) {
    (void)stage;
    (void)instance;
    if (el.kind != spe::ElementKind::kRecord) return;
    qos_.RecordOutput(id, el.record.event_time, clock_->NowMs());
  };

  std::shared_ptr<spe::Runner> runner;
  if (config_.threaded) {
    runner = std::make_shared<spe::ThreadedRunner>(
        std::move(spec), sink_fn, nullptr, config_.channel_capacity);
  } else {
    runner = std::make_shared<spe::SyncRunner>(std::move(spec), sink_fn);
  }
  ASTREAM_RETURN_IF_ERROR(runner->Start());
  return runner;
}

void BaselineSut::DeployWorker() {
  while (true) {
    DeployRequest req;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stopping_ || !deploy_queue_.empty(); });
      if (stopping_) return;
      req = std::move(deploy_queue_.front());
      deploy_queue_.pop_front();
      ++in_flight_deploys_;
    }
    // The substituted JVM/scheduler deployment cost (serialized, like
    // Flink's job manager handling one submission at a time).
    if (config_.deploy_cost_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.deploy_cost_ms));
    }
    if (req.create) {
      auto runner = BuildJob(req.id, req.desc);
      if (runner.ok()) {
        auto job = std::make_shared<QueryJob>();
        job->id = req.id;
        job->desc = req.desc;
        job->runner = std::move(runner).value();
        job->num_inputs = req.desc.HasJoin() ? 2 : 1;
        std::lock_guard<std::mutex> lock(mutex_);
        jobs_[req.id] = std::move(job);
      } else {
        ASTREAM_LOG(kError, "baseline")
            << "deploy failed: " << runner.status().ToString();
      }
    } else {
      std::shared_ptr<QueryJob> job;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = jobs_.find(req.id);
        if (it != jobs_.end()) {
          job = it->second;
          jobs_.erase(it);
        }
      }
      if (job != nullptr) job->runner->Cancel();
    }
    qos_.RecordDeployment(req.id, clock_->NowMs() - req.enqueued_at);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_deploys_;
    }
    cv_.notify_all();
  }
}

std::vector<std::shared_ptr<BaselineSut::QueryJob>>
BaselineSut::SnapshotJobs() const {
  std::vector<std::shared_ptr<QueryJob>> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(job);
  return out;
}

core::PushResult BaselineSut::Push(int stream, TimestampMs event_time,
                                   spe::Row row) {
  for (const auto& job : SnapshotJobs()) {
    if (stream >= job->num_inputs) continue;
    job->runner->Push(stream,
                      spe::StreamElement::MakeRecord(event_time, row));
  }
  return core::PushResult::kAccepted;
}

void BaselineSut::PushWatermark(TimestampMs watermark) {
  last_watermark_ = watermark;
  for (const auto& job : SnapshotJobs()) {
    for (int input = 0; input < job->num_inputs; ++input) {
      job->runner->Push(input, spe::StreamElement::MakeWatermark(watermark));
    }
  }
}

Result<QueryId> BaselineSut::Submit(const QueryDescriptor& desc) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeployRequest req;
  req.create = true;
  req.id = next_id_++;
  req.desc = desc;
  req.enqueued_at = clock_->NowMs();
  const QueryId id = req.id;
  deploy_queue_.push_back(std::move(req));
  cv_.notify_all();
  return id;
}

Status BaselineSut::Cancel(QueryId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeployRequest req;
  req.create = false;
  req.id = id;
  req.enqueued_at = clock_->NowMs();
  deploy_queue_.push_back(std::move(req));
  cv_.notify_all();
  return Status::OK();
}

bool BaselineSut::WaitDeployed(TimestampMs timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return deploy_queue_.empty() && in_flight_deploys_ == 0;
  });
}

void BaselineSut::FinishAndWait() {
  WaitDeployed(60'000);
  for (const auto& job : SnapshotJobs()) job->runner->FinishAndWait();
  Stop();
}

void BaselineSut::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (deploy_thread_.joinable()) deploy_thread_.join();
  for (const auto& job : SnapshotJobs()) job->runner->Cancel();
}

size_t BaselineSut::QueuedElements() const {
  size_t n = 0;
  for (const auto& job : SnapshotJobs()) {
    auto* threaded = dynamic_cast<spe::ThreadedRunner*>(job->runner.get());
    if (threaded != nullptr) n += threaded->TotalQueuedElements();
  }
  return n;
}

size_t BaselineSut::num_active_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.size();
}

size_t BaselineSut::deploy_queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deploy_queue_.size() + in_flight_deploys_;
}

}  // namespace astream::harness
