#include "core/astream.h"

#include <chrono>

#include "common/logging.h"
#include "core/job_config.h"
#include "spe/operators.h"

namespace astream::core {

AStreamJob::AStreamJob(Options options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : WallClock::Default()),
      metrics_(options.enable_metrics),
      trace_(options.enable_trace),
      session_(options.session),
      admission_(options.slo) {
  store_ = options_.checkpoint_store != nullptr ? options_.checkpoint_store
                                                : &checkpoint_store_;
  store_->SetRetention(options_.checkpoint_retention);
  next_checkpoint_epoch_ = options_.first_checkpoint_id;
  // Admission decisions are refined from metered shares, so admission
  // implies metering; metering is attribution into per-query series, so
  // it needs the registry.
  if (options_.slo.enable_admission) options_.meter_costs = true;
  if (!metrics_.enabled()) options_.meter_costs = false;
  if (metrics_.enabled()) {
    m_push_accepted_ = metrics_.GetCounter("job.push_accepted");
    m_push_clamped_ = metrics_.GetCounter("job.push_clamped");
    m_push_backpressure_ = metrics_.GetCounter("job.push_backpressure");
    m_push_shutdown_ = metrics_.GetCounter("job.push_shutdown");
    m_deploy_latency_ = metrics_.GetHistogram("job.deploy_latency_ms");
    if (admission_.enabled()) {
      m_admission_rejected_ = metrics_.GetCounter("admission.rejected");
      m_admission_queued_ = metrics_.GetCounter("admission.queued");
      // Bumped by the isolation manager; created eagerly so the trio is
      // always present in snapshots of an admission-enabled job.
      metrics_.GetCounter("admission.desharings");
    }
  }
}

AStreamJob::~AStreamJob() { Stop(); }

Result<std::unique_ptr<AStreamJob>> AStreamJob::Create(Options options) {
  // One shared validator for every engine knob (see core/job_config.h):
  // the facade and the JobConfig surface reject exactly the same inputs.
  ASTREAM_RETURN_IF_ERROR(astream::ValidateJobOptions(options));
  auto job = std::unique_ptr<AStreamJob>(new AStreamJob(options));
  // Out-of-core engine: only materialized when a budget is in force, so an
  // unbudgeted job is byte-for-byte the pre-storage code path.
  const int64_t budget = storage::ResolveMemoryBudget(options.storage);
  if (budget > 0) {
    ASTREAM_ASSIGN_OR_RETURN(job->spill_space_,
                             storage::SpillSpace::Create(
                                 options.storage.spill_dir));
    job->spill_space_->BindObs(&job->metrics_, &job->trace_);
    job->governor_ = std::make_unique<storage::MemoryGovernor>(
        budget, options.storage.allow_spill);
    // Storage engine v2 (DESIGN.md §13): one job-wide block format —
    // every store (slices, partials, CL deltas) and the compactor write
    // through these options.
    storage::SpillSpace::WriterOptions wo;
    wo.compress = options.storage.compress_spill;
    job->spill_space_->SetWriterOptions(wo);
    if (options.storage.compaction) {
      storage::Compactor::Options copts;
      // Sync (inline, deterministic) whenever the job itself is the
      // deterministic sync runner; the worker thread only exists in
      // threaded mode.
      copts.sync = !options.threaded;
      copts.min_runs = options.storage.compaction_min_runs;
      job->compactor_ = std::make_unique<storage::Compactor>(
          job->spill_space_.get(), copts);
    }
  }
  return job;
}

spe::TopologySpec AStreamJob::BuildTopology() {
  spe::TopologySpec spec;
  const int par = options_.parallelism;
  const bool overhead = options_.measure_overhead;
  const TopologyKind topology = options_.topology;
  const bool multiway = topology == TopologyKind::kMultiway;
  // Every topology windows one query kind (the rest are selections) over
  // a fixed number of external streams.
  QueryKind windowed = QueryKind::kAggregation;
  int streams = 1;
  switch (topology) {
    case TopologyKind::kAggregation:
      break;
    case TopologyKind::kJoin:
      windowed = QueryKind::kJoin;
      streams = 2;
      break;
    case TopologyKind::kComplex:
      windowed = QueryKind::kComplex;
      streams = 2;
      break;
    case TopologyKind::kMultiway:
      windowed = QueryKind::kMultiJoin;
      streams = options_.num_streams;
      break;
  }

  // Registers an operator for CollectStats before the runner takes it.
  auto track = [this](auto* ops, auto op) {
    std::lock_guard<std::mutex> lock(ops_mutex_);
    ops->push_back(op.get());
    return op;
  };
  auto shared_config = [this](std::function<bool(const ActiveQuery&)> hosts) {
    SharedOperatorConfig cfg;
    cfg.hosts = std::move(hosts);
    cfg.initial_mode = options_.initial_mode;
    cfg.adaptive_mode = options_.adaptive_mode;
    cfg.metrics = &metrics_;
    cfg.meter_costs = options_.meter_costs;
    cfg.governor = governor_.get();
    cfg.spill_space = spill_space_.get();
    cfg.compactor = compactor_.get();
    cfg.access_aware_eviction =
        governor_ != nullptr && options_.storage.access_aware_eviction;
    cfg.share_arrangements = options_.share_arrangements;
    return cfg;
  };
  auto hosts_windowed = [windowed](const ActiveQuery& q) {
    return q.desc.kind == windowed;
  };

  // One shared selection per external stream, in stream order. Two-stream
  // topologies name them by letter (stream-a, shared-selection-b),
  // multiway ones by number (stream-2, shared-selection-s2).
  std::vector<int> sel_stages;
  for (int s = 0; s < streams; ++s) {
    const std::string number = std::to_string(s);
    const std::string letter(1, static_cast<char>('a' + s));
    spe::StageSpec sel;
    sel.name = "shared-selection-" + (multiway ? "s" + number : letter);
    sel.parallelism = par;
    sel.factory = [this, track, overhead,
                   s](int) -> std::unique_ptr<spe::Operator> {
      SharedSelection::Config cfg;
      cfg.stream = s;
      cfg.measure_overhead = overhead;
      cfg.use_predicate_index = options_.use_predicate_index;
      cfg.metrics = &metrics_;
      cfg.meter_costs = options_.meter_costs;
      return track(&selections_, std::make_unique<SharedSelection>(cfg));
    };
    sel_stages.push_back(spec.AddStage(std::move(sel)));
    spec.AddExternalInput({"stream-" + (multiway ? number : letter),
                           sel_stages.back(), 0, spe::Partitioning::kHash});
  }

  // The windowed stage, whose output is the router's port 1.
  int s_windowed = -1;
  if (topology == TopologyKind::kJoin || multiway) {
    spe::StageSpec join;
    join.name = multiway ? "shared-multiway-join" : "shared-join";
    join.parallelism = par;
    join.num_ports = streams;
    join.factory = [this, track, shared_config, hosts_windowed, multiway,
                    streams](int) -> std::unique_ptr<spe::Operator> {
      if (multiway) {
        return track(&mjoins_, std::make_unique<SharedMultiwayJoin>(
                                   shared_config(hosts_windowed), streams));
      }
      return track(&joins_,
                   std::make_unique<SharedJoin>(shared_config(hosts_windowed)));
    };
    for (int s = 0; s < streams; ++s) {
      join.inputs.push_back({sel_stages[s], s, spe::Partitioning::kHash});
    }
    s_windowed = spec.AddStage(std::move(join));
  } else {
    // An aggregation over stream 0 or, for kComplex, over each stage of a
    // cascade of binary joins (stage k joins stage k-1 with stream 1).
    std::vector<int> agg_inputs;
    if (topology == TopologyKind::kComplex) {
      int left_input = sel_stages[0];
      for (int k = 1; k <= options_.max_join_stages; ++k) {
        spe::StageSpec join;
        join.name = "shared-join-" + std::to_string(k);
        join.parallelism = par;
        join.num_ports = 2;
        auto hosts = [k](const ActiveQuery& q) {
          return q.desc.kind == QueryKind::kComplex && q.desc.join_depth >= k;
        };
        join.factory = [this, track, shared_config,
                        hosts](int) -> std::unique_ptr<spe::Operator> {
          return track(&joins_,
                       std::make_unique<SharedJoin>(shared_config(hosts)));
        };
        join.inputs = {{left_input, 0, spe::Partitioning::kHash},
                       {sel_stages[1], 1, spe::Partitioning::kHash}};
        left_input = spec.AddStage(std::move(join));
        agg_inputs.push_back(left_input);
      }
    } else {
      agg_inputs.push_back(sel_stages[0]);
    }
    const int ports = static_cast<int>(agg_inputs.size());
    spe::StageSpec agg;
    agg.name = "shared-aggregation";
    agg.parallelism = par;
    agg.num_ports = ports;
    agg.factory = [this, track, shared_config, hosts_windowed, topology,
                   ports](int) -> std::unique_ptr<spe::Operator> {
      SharedAggregation::AggConfig cfg;
      cfg.shared = shared_config(hosts_windowed);
      cfg.num_ports = ports;
      if (topology == TopologyKind::kComplex) {
        cfg.port_filter = [](const ActiveQuery& q, int port) {
          return q.desc.join_depth == port + 1;
        };
      }
      return track(&aggregations_,
                   std::make_unique<SharedAggregation>(std::move(cfg)));
    };
    for (int port = 0; port < ports; ++port) {
      agg.inputs.push_back(
          {agg_inputs[port], port, spe::Partitioning::kHash});
    }
    s_windowed = spec.AddStage(std::move(agg));
  }

  // The router: raw stream-0 tuples of selection queries on port 0,
  // windowed results on port 1. It is a stateless fan-out, so it is
  // chained: each stream-0 selection instance runs a port-0 replica and
  // each windowed instance a port-1 replica on its own thread, and no
  // result row crosses a thread on its way to the sink.
  spe::StageSpec router;
  router.name = "router";
  router.num_ports = 2;
  router.is_sink = true;
  router.chained = true;
  router.factory = [this, track,
                    overhead](int) -> std::unique_ptr<spe::Operator> {
    RouterOperator::Config cfg;
    cfg.num_ports = 2;
    cfg.measure_overhead = overhead;
    cfg.metrics = &metrics_;
    cfg.trace = &trace_;
    cfg.clock = clock_;
    cfg.routes_raw = [](const ActiveQuery& q, int port) {
      return port == 0 ? q.desc.kind == QueryKind::kSelection
                       : q.desc.HasWindow();
    };
    return track(&routers_, std::make_unique<RouterOperator>(std::move(cfg)));
  };
  router.inputs = {{sel_stages[0], 0, spe::Partitioning::kHash},
                   {s_windowed, 1, spe::Partitioning::kHash}};
  const int s_router = spec.AddStage(std::move(router));

  selection_stages_ = sel_stages;
  // Counted in instances the runner builds, so router replicas count once
  // each: every replica snapshots at a barrier and acks every changelog.
  router_instances_ = spec.NumInstances(s_router);
  total_instances_ = 0;
  for (int s = 0; s < static_cast<int>(spec.stages().size()); ++s) {
    total_instances_ += static_cast<size_t>(spec.NumInstances(s));
  }
  return spec;
}

Status AStreamJob::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  spe::TopologySpec spec = BuildTopology();
  auto sink = [this](int stage, int instance,
                     const spe::SinkOutput& output) {
    HandleSink(stage, instance, output);
  };
  auto snapshot = [this](int64_t id, int stage, int instance,
                         std::vector<uint8_t> state) {
    store_->AddOperatorState(id, stage, instance, std::move(state));
    // +1: the shared session's control-plane snapshot (stage -1).
    store_->MaybeComplete(id, total_instances_ + 1);
  };
  // Per-edge batch-size histograms, resolved by stage index so the push
  // observer is a plain array lookup + lock-free record.
  edge_batch_hists_.clear();
  if (metrics_.enabled()) {
    for (const auto& stage : spec.stages()) {
      edge_batch_hists_.push_back(
          metrics_.GetHistogram("edge." + stage.name + ".batch_size"));
    }
  }
  source_batches_.clear();
  source_batches_.resize(spec.external_inputs().size());
  source_batch_start_.assign(spec.external_inputs().size(), 0);
  if (options_.threaded) {
    auto threaded = std::make_unique<spe::ThreadedRunner>(
        std::move(spec), sink, snapshot, options_.channel_capacity,
        options_.batch_size, options_.use_spsc_rings);
    if (!edge_batch_hists_.empty()) {
      threaded->SetEdgePushObserver([this](int stage, size_t batch) {
        edge_batch_hists_[stage]->Record(static_cast<int64_t>(batch));
      });
    }
    runner_ = std::move(threaded);
  } else {
    runner_ = std::make_unique<spe::SyncRunner>(std::move(spec), sink,
                                                snapshot, options_.batch_size);
  }
  ASTREAM_RETURN_IF_ERROR(runner_->Start());
  if (compactor_ != nullptr) compactor_->Start();  // no-op in sync mode
  started_ = true;
  return Status::OK();
}

void AStreamJob::HandleSink(int stage, int instance,
                            const spe::SinkOutput& output) {
  (void)stage;
  (void)instance;
  if (output.control == nullptr) {
    DeliverRun(output.records);
    return;
  }
  const spe::StreamElement& el = *output.control;
  if (el.kind != spe::ElementKind::kMarker ||
      el.marker.kind != spe::MarkerKind::kChangelog) {
    return;
  }
  std::vector<std::pair<QueryId, TimestampMs>> latencies;
  {
    std::lock_guard<std::mutex> lock(session_mutex_);
    // Deployed once every router replica applied it.
    const int acks = ++epoch_acks_[el.marker.epoch];
    if (acks < router_instances_) return;
    epoch_acks_.erase(el.marker.epoch);
    session_.OnEpochDeployed(el.marker.epoch, clock_->NowMs(), &latencies);
  }
  for (const auto& [id, latency] : latencies) {
    qos_.RecordDeployment(id, latency);
    if (m_deploy_latency_ != nullptr) m_deploy_latency_->Record(latency);
    if (obs::QuerySeries* s = metrics_.SeriesFor(id)) {
      s->deploy_latency_ms.Record(latency);
    }
    trace_.Record(obs::TraceEventKind::kDeployAck, id, latency);
  }
  ack_cv_.notify_all();
}

void AStreamJob::DeliverRun(std::span<const spe::Record> run) {
  // Every router output carries its query id in `channel`.
  qos_.RecordOutputs(run, clock_->NowMs());
  std::shared_ptr<const ResultRunCallback> cb;
  {
    std::lock_guard<std::mutex> lock(callback_mutex_);
    cb = result_callback_;
  }
  if (cb != nullptr && *cb) (*cb)(run);
}

TimestampMs AStreamJob::ClampToMarkers(TimestampMs event_time) {
  // A tuple pushed after a changelog marker must not sort before it in
  // event time (the alignment invariant operators rely on). Markers are
  // stamped at wall-time + 1, so a tuple generated in the same millisecond
  // is nudged onto the marker's time.
  std::lock_guard<std::mutex> lock(session_mutex_);
  return std::max(event_time, session_.last_marker_time());
}

PushResult AStreamJob::Push(int stream, TimestampMs event_time,
                            spe::Row row) {
  // Stream s feeds external input s (BuildTopology adds them in order).
  const int input = stream;
  if (input < 0 || input >= NumInputStreams() || !started_ || finished_ ||
      runner_->Failed()) {
    // Permanent refusal: no such stream, or nothing to retry against. A
    // poisoned runner refuses immediately instead of blocking on dead
    // consumers.
    if (m_push_shutdown_ != nullptr) m_push_shutdown_->Add();
    return PushResult::kShutdown;
  }
  if (governor_ != nullptr && governor_->ShouldBackpressure()) {
    // Budget exceeded with spilling disabled: refuse (retryable) instead
    // of growing state without bound. The caller decides whether to wait
    // for windows to expire or to drop.
    if (m_push_backpressure_ != nullptr) m_push_backpressure_->Add();
    return PushResult::kBackpressure;
  }
  const TimestampMs pushed_time = ClampToMarkers(event_time);

  bool ok = true;
  if (options_.batch_size <= 1) {
    // Status-quo element-at-a-time path: no buffering, no demux scratch.
    ok = runner_->Push(input, spe::StreamElement::MakeRecord(
                                  pushed_time, std::move(row)));
  } else {
    // Source-side batch former: buffer the tuple, ship the run as one
    // ElementBatch once it is full or the linger window elapsed in event
    // time.
    spe::ElementBatch& buf = source_batches_[input];
    if (buf.empty()) source_batch_start_[input] = pushed_time;
    buf.Add(spe::StreamElement::MakeRecord(pushed_time, std::move(row)));
    if (buf.size() >= options_.batch_size ||
        pushed_time - source_batch_start_[input] >=
            options_.batch_linger_ms) {
      ok = runner_->Push(input, std::move(buf));
      buf.Clear();
    }
  }
  if (!ok) {
    // The runner refuses only when cancelled — shutdown, not backpressure
    // (blocking channel pushes absorb transient pressure).
    if (m_push_shutdown_ != nullptr) m_push_shutdown_->Add();
    return PushResult::kShutdown;
  }
  if (pushed_time != event_time) {
    if (m_push_clamped_ != nullptr) m_push_clamped_->Add();
    return PushResult::kLateClamped;
  }
  if (m_push_accepted_ != nullptr) m_push_accepted_->Add();
  return PushResult::kAccepted;
}

void AStreamJob::FlushSourceBatches() {
  if (runner_ == nullptr) return;
  for (size_t in = 0; in < source_batches_.size(); ++in) {
    if (source_batches_[in].empty()) continue;
    runner_->Push(static_cast<int>(in), std::move(source_batches_[in]));
    source_batches_[in].Clear();
  }
}

void AStreamJob::PushWatermark(TimestampMs watermark) {
  FlushSourceBatches();
  for (int input = 0; input < NumInputStreams(); ++input) {
    runner_->Push(input, spe::StreamElement::MakeWatermark(watermark));
  }
}

Status AStreamJob::ValidateQuery(const QueryDescriptor& desc) const {
  switch (options_.topology) {
    case TopologyKind::kAggregation:
      if (desc.kind != QueryKind::kSelection &&
          desc.kind != QueryKind::kAggregation) {
        return Status::InvalidArgument(
            "aggregation topology accepts selection/aggregation queries");
      }
      break;
    case TopologyKind::kJoin:
      if (desc.kind != QueryKind::kSelection &&
          desc.kind != QueryKind::kJoin) {
        return Status::InvalidArgument(
            "join topology accepts selection/join queries");
      }
      if (desc.kind == QueryKind::kJoin && !desc.window.IsTimeWindow()) {
        return Status::InvalidArgument(
            "windowed joins require time windows");
      }
      break;
    case TopologyKind::kComplex:
      if (desc.kind != QueryKind::kSelection &&
          desc.kind != QueryKind::kComplex) {
        return Status::InvalidArgument(
            "complex topology accepts selection/complex queries");
      }
      if (desc.kind == QueryKind::kComplex) {
        if (!desc.window.IsTimeWindow()) {
          return Status::InvalidArgument(
              "complex queries require time windows");
        }
        if (desc.join_depth < 1 ||
            desc.join_depth > options_.max_join_stages) {
          return Status::InvalidArgument("join_depth out of range");
        }
      }
      break;
    case TopologyKind::kMultiway:
      if (desc.kind != QueryKind::kSelection &&
          desc.kind != QueryKind::kMultiJoin) {
        return Status::InvalidArgument(
            "multiway topology accepts selection/multijoin queries");
      }
      if (desc.kind == QueryKind::kMultiJoin) {
        if (!desc.window.IsTimeWindow()) {
          return Status::InvalidArgument(
              "multiway joins require time windows");
        }
        if (desc.join_inputs.size() < 2 ||
            desc.join_inputs.size() >
                static_cast<size_t>(options_.num_streams)) {
          return Status::InvalidArgument(
              "multiway join needs 2..num_streams input legs");
        }
        for (const JoinInput& in : desc.join_inputs) {
          if (in.stream < 0 || in.stream >= options_.num_streams) {
            return Status::InvalidArgument(
                "multiway join leg reads a stream the job does not have");
          }
        }
      }
      break;
  }
  if (desc.HasWindow() && desc.window.IsTimeWindow()) {
    if (desc.window.length <= 0 || desc.window.slide <= 0 ||
        desc.window.slide > desc.window.length) {
      return Status::InvalidArgument("bad window length/slide");
    }
  }
  if (desc.HasWindow() && !desc.window.IsTimeWindow() &&
      desc.window.gap <= 0) {
    return Status::InvalidArgument("bad session gap");
  }
  return Status::OK();
}

Result<QueryId> AStreamJob::Submit(const QueryDescriptor& desc) {
  ASTREAM_ASSIGN_OR_RETURN(SubmitOutcome outcome, SubmitWithOutcome(desc));
  if (outcome.decision == AdmissionDecision::kRejected) {
    return Status::AdmissionRejected(outcome.reason);
  }
  return outcome.id;
}

Result<AStreamJob::SubmitOutcome> AStreamJob::SubmitWithOutcome(
    const QueryDescriptor& desc) {
  if (!started_) {
    return Status::FailedPrecondition(
        "Submit() before Start(): the job is not running");
  }
  if (finished_) {
    return Status::FailedPrecondition(
        "Submit() on a finished job: it was stopped or drained "
        "(FinishAndWait()/Stop()) and accepts no new queries");
  }
  ASTREAM_RETURN_IF_ERROR(ValidateQuery(desc));
  SubmitOutcome outcome;
  if (admission_.enabled()) {
    const AdmissionController::Decision d =
        admission_.Decide(desc, admission_queue_.size(), LiveP99());
    outcome.predicted_cost = d.predicted_cost;
    outcome.reason = d.reason;
    if (d.action == AdmissionDecision::kRejected) {
      outcome.decision = AdmissionDecision::kRejected;
      if (m_admission_rejected_ != nullptr) m_admission_rejected_->Add();
      return outcome;
    }
    if (d.action == AdmissionDecision::kQueued) {
      outcome.decision = AdmissionDecision::kQueued;
      {
        // The id is allocated now so the caller can Cancel a queued query;
        // the descriptor deploys from MaybeAdmitQueued.
        std::lock_guard<std::mutex> lock(session_mutex_);
        outcome.id = session_.AllocateId();
      }
      admission_queue_.push_back(QueuedSubmit{outcome.id, desc});
      if (m_admission_queued_ != nullptr) m_admission_queued_->Add();
      return outcome;
    }
  }
  {
    std::lock_guard<std::mutex> lock(session_mutex_);
    outcome.id = session_.Submit(desc, clock_->NowMs());
  }
  admission_.OnAdmitted(outcome.id, desc);
  trace_.Record(obs::TraceEventKind::kSubmit, outcome.id);
  Pump(false);
  return outcome;
}

Status AStreamJob::Cancel(QueryId id) {
  if (!started_) {
    return Status::FailedPrecondition(
        "Cancel() before Start(): the job is not running");
  }
  if (finished_) {
    return Status::FailedPrecondition(
        "Cancel() on a finished job: it was stopped or drained");
  }
  // A queued query never reached the session: drop it from the queue.
  for (auto it = admission_queue_.begin(); it != admission_queue_.end();
       ++it) {
    if (it->id == id) {
      admission_queue_.erase(it);
      return Status::OK();
    }
  }
  Status s;
  {
    std::lock_guard<std::mutex> lock(session_mutex_);
    s = session_.Cancel(id, clock_->NowMs());
  }
  if (s.ok()) {
    admission_.OnCancelled(id);
    trace_.Record(obs::TraceEventKind::kCancel, id);
    Pump(false);
  }
  return s;
}

void AStreamJob::MaybeAdmitQueued() {
  if (admission_queue_.empty()) return;
  const double p99 = LiveP99();
  while (!admission_queue_.empty()) {
    const QueuedSubmit& front = admission_queue_.front();
    if (!admission_.HasHeadroom(front.desc, p99)) break;
    {
      std::lock_guard<std::mutex> lock(session_mutex_);
      session_.SubmitWithId(front.id, front.desc, clock_->NowMs());
    }
    admission_.OnAdmitted(front.id, front.desc);
    trace_.Record(obs::TraceEventKind::kSubmit, front.id);
    admission_queue_.pop_front();
  }
}

double AStreamJob::LiveP99() const {
  return static_cast<double>(
      qos_.TakeSnapshot().event_time_latency.Percentile(99));
}

int AStreamJob::Pump(bool force) {
  // Queued queries first: an admit folds into the same changelog flush.
  MaybeAdmitQueued();
  // Changelog markers are batch boundaries: every tuple accepted before
  // the marker must enter the stream before it.
  FlushSourceBatches();
  int injected = 0;
  while (true) {
    std::shared_ptr<const Changelog> log;
    std::optional<StoreMode> mode_switch;
    {
      std::lock_guard<std::mutex> lock(session_mutex_);
      log = session_.MaybeFlush(clock_->NowMs(), force);
      if (log != nullptr) mode_switch = session_.TakeModeSwitch();
    }
    if (log == nullptr) break;
    // Recorded before the injection: in sync mode the marker propagates
    // (and deploy acks fire) inside InjectMarker itself.
    trace_.Record(obs::TraceEventKind::kChangelogFlush, -1, log->epoch);
    runner_->InjectMarker(Changelog::MakeMarker(log));
    ++injected;
    if (mode_switch.has_value()) {
      auto payload = std::make_shared<ModeSwitchPayload>();
      payload->mode = *mode_switch;
      spe::ControlMarker marker;
      marker.kind = spe::MarkerKind::kModeSwitch;
      marker.epoch = next_mode_epoch_++;
      marker.time = log->time;
      marker.payload = std::move(payload);
      runner_->InjectMarker(marker);
    }
  }
  return injected;
}

bool AStreamJob::WaitForDeployment(TimestampMs timeout_ms) {
  std::unique_lock<std::mutex> lock(session_mutex_);
  return ack_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                          [&] { return epoch_acks_.empty(); });
}

int64_t AStreamJob::TriggerCheckpoint(std::map<int, int64_t> source_offsets,
                                      int64_t id) {
  // Checkpoint barriers are batch boundaries too.
  FlushSourceBatches();
  if (id == 0) {
    id = next_checkpoint_epoch_++;
  } else if (id >= next_checkpoint_epoch_) {
    // Replay re-triggering a logged checkpoint: keep the counter monotonic.
    next_checkpoint_epoch_ = id + 1;
  }
  store_->BeginCheckpoint(id, std::move(source_offsets));
  // Control-plane snapshot: the shared session's slot allocator and id /
  // epoch counters, taken atomically with the barrier injection so no
  // changelog can slip between them.
  {
    std::lock_guard<std::mutex> lock(session_mutex_);
    spe::StateWriter writer;
    session_.Serialize(&writer);
    store_->AddOperatorState(id, kSessionStateStage, 0, writer.TakeBuffer());
    store_->MaybeComplete(id, total_instances_ + 1);
    spe::ControlMarker marker;
    marker.kind = spe::MarkerKind::kCheckpointBarrier;
    marker.epoch = id;
    marker.time = clock_->NowMs();
    runner_->InjectMarker(marker);
  }
  trace_.Record(obs::TraceEventKind::kCheckpoint, -1, id);
  return id;
}

Status AStreamJob::RestoreFrom(
    const spe::CheckpointStore::Checkpoint& checkpoint) {
  auto it = checkpoint.operator_state.find(
      spe::CheckpointStore::StateKey(kSessionStateStage, 0));
  if (it != checkpoint.operator_state.end()) {
    std::lock_guard<std::mutex> lock(session_mutex_);
    spe::StateReader reader(it->second);
    ASTREAM_RETURN_IF_ERROR(session_.Restore(&reader));
  }
  return runner_->Restore(checkpoint);
}

Status AStreamJob::FinishAndWait() {
  if (!started_ || finished_) return Status::OK();
  FlushSourceBatches();
  Pump(true);
  runner_->FinishAndWait();
  // All task threads are parked: drain + join the compaction worker so
  // any in-flight fold settles its ticket before teardown.
  if (compactor_ != nullptr) compactor_->Stop();
  finished_ = true;
  trace_.Record(obs::TraceEventKind::kFinish);
  return runner_->Failure();
}

Status AStreamJob::Stop() {
  if (!started_ || finished_) {
    return runner_ != nullptr ? runner_->Failure() : Status::OK();
  }
  runner_->Cancel();
  if (compactor_ != nullptr) compactor_->Stop();
  finished_ = true;
  return runner_->Failure();
}

Status AStreamJob::Health() const {
  if (runner_ == nullptr) return Status::OK();
  return runner_->Failure();
}

bool AStreamJob::Failed() const {
  return runner_ != nullptr && runner_->Failed();
}

void AStreamJob::DeclareFailed(const Status& status) {
  auto* threaded = dynamic_cast<spe::ThreadedRunner*>(runner_.get());
  if (threaded != nullptr) threaded->DeclareFailed(status);
}

std::vector<spe::ThreadedRunner::TaskHealthSample>
AStreamJob::TaskHealth() const {
  auto* threaded = dynamic_cast<spe::ThreadedRunner*>(runner_.get());
  if (threaded == nullptr) return {};
  return threaded->SampleTaskHealth();
}

AStreamJob::ResultRunCallback AStreamJob::PerRow(ResultCallback callback) {
  if (!callback) return nullptr;
  return [callback = std::move(callback)](std::span<const spe::Record> run) {
    for (const spe::Record& r : run) callback(r.channel, r);
  };
}

void AStreamJob::SetResultCallback(ResultCallback callback) {
  SetResultCallback(PerRow(std::move(callback)));
}

void AStreamJob::SetResultCallback(ResultRunCallback callback) {
  auto shared = std::make_shared<const ResultRunCallback>(std::move(callback));
  std::lock_guard<std::mutex> lock(callback_mutex_);
  result_callback_ = std::move(shared);
}

AStreamJob::OperatorStats& AStreamJob::OperatorStats::operator+=(
    const OperatorStats& o) {
  static_assert(sizeof(OperatorStats) == 24 * sizeof(int64_t),
                "a new OperatorStats field must be summed here too");
  queryset_nanos += o.queryset_nanos;
  fanout_nanos += o.fanout_nanos;
  bitset_ops += o.bitset_ops;
  join_pairs_computed += o.join_pairs_computed;
  join_pairs_reused += o.join_pairs_reused;
  records_late += o.records_late;
  selection_records_in += o.selection_records_in;
  selection_records_out += o.selection_records_out;
  router_records_out += o.router_records_out;
  router_rows_shared += o.router_rows_shared;
  router_rows_copied += o.router_rows_copied;
  state_arena_bytes += o.state_arena_bytes;
  reload_saves += o.reload_saves;
  arrange_memo_hits += o.arrange_memo_hits;
  arrange_memo_misses += o.arrange_memo_misses;
  arrange_memo_bytes += o.arrange_memo_bytes;
  factor_rewrites += o.factor_rewrites;
  factor_reuses += o.factor_reuses;
  factor_fallbacks += o.factor_fallbacks;
  mjoin_chains_computed += o.mjoin_chains_computed;
  mjoin_chains_reused += o.mjoin_chains_reused;
  subjoins_built += o.subjoins_built;
  subjoins_attached += o.subjoins_attached;
  subjoin_nodes += o.subjoin_nodes;
  return *this;
}

AStreamJob::OperatorStats AStreamJob::CollectStats() const {
  std::lock_guard<std::mutex> lock(ops_mutex_);
  OperatorStats s;
  for (const SharedSelection* sel : selections_) {
    s.queryset_nanos += sel->queryset_nanos();
  }
  for (const RouterOperator* r : routers_) {
    s.fanout_nanos += r->fanout_nanos();
    s.router_records_out += r->records_routed();
    s.router_rows_shared += r->rows_shared();
    s.router_rows_copied += r->rows_copied();
  }
  for (const SharedJoin* j : joins_) {
    s.bitset_ops += j->bitset_ops();
    s.join_pairs_computed += j->pairs_computed();
    s.join_pairs_reused += j->pairs_reused();
    s.records_late += j->records_late();
    s.state_arena_bytes += j->state_arena_bytes();
    // The join-pair memo is the join side of the arrangement layer.
    s.arrange_memo_hits += j->pairs_reused();
    s.arrange_memo_misses += j->pairs_computed();
    const FactorRegistry::Stats fs = j->tracker().factors().stats();
    s.factor_rewrites += fs.rewrites;
    s.factor_reuses += fs.reuses;
    s.factor_fallbacks += fs.fallbacks;
  }
  for (const SharedMultiwayJoin* m : mjoins_) {
    s.bitset_ops += m->bitset_ops();
    s.records_late += m->records_late();
    s.state_arena_bytes += m->state_arena_bytes();
    s.reload_saves += m->reload_saves();
    s.mjoin_chains_computed += m->chains_computed();
    s.mjoin_chains_reused += m->chains_reused();
    // The chain memo is the multiway analogue of the join-pair memo.
    s.arrange_memo_hits += m->chains_reused();
    s.arrange_memo_misses += m->chains_computed();
    const SubJoinRegistry::Stats ss = m->registry().stats();
    s.subjoins_built += ss.built;
    s.subjoins_attached += ss.attached;
    s.subjoin_nodes += static_cast<int64_t>(m->registry().NumNodes());
  }
  for (const SharedAggregation* a : aggregations_) {
    s.bitset_ops += a->bitset_ops();
    s.records_late += a->records_late();
    s.state_arena_bytes += a->state_arena_bytes();
    s.reload_saves += a->reload_saves();
    s.arrange_memo_hits += a->arrangement().memo_hits();
    s.arrange_memo_misses += a->arrangement().memo_misses();
    s.arrange_memo_bytes +=
        static_cast<int64_t>(a->arrangement().memo_bytes());
    const FactorRegistry::Stats fs = a->tracker().factors().stats();
    s.factor_rewrites += fs.rewrites;
    s.factor_reuses += fs.reuses;
    s.factor_fallbacks += fs.fallbacks;
  }
  if (runner_ != nullptr) {
    // Every input stream feeds its own selection stage.
    for (int stage : selection_stages_) {
      s.selection_records_in += runner_->StageRecordsIn(stage);
      s.selection_records_out += runner_->StageRecordsOut(stage);
    }
  }
  return s;
}

std::map<QueryId, int64_t> AStreamJob::ComputeStateShares() const {
  std::map<QueryId, int64_t> shares;
  std::lock_guard<std::mutex> lock(ops_mutex_);
  for (const SharedJoin* j : joins_) j->AppendStateShares(&shares);
  for (const SharedMultiwayJoin* m : mjoins_) m->AppendStateShares(&shares);
  for (const SharedAggregation* a : aggregations_) {
    a->AppendStateShares(&shares);
  }
  return shares;
}

std::map<QueryId, int64_t> AStreamJob::MeteredCosts() {
  std::map<QueryId, int64_t> recent;
  if (!options_.meter_costs || !metrics_.enabled()) return recent;
  const std::map<QueryId, int64_t> state = ComputeStateShares();
  std::vector<QueryId> active;
  {
    std::lock_guard<std::mutex> lock(session_mutex_);
    active = session_.ActiveIds();
  }
  std::map<QueryId, int64_t> cumulative;
  int64_t recent_total = 0;
  for (QueryId id : active) {
    obs::QuerySeries* s = metrics_.SeriesFor(id);
    if (s == nullptr) continue;
    const auto st = state.find(id);
    const int64_t state_units =
        st == state.end() ? 0 : st->second / 1024;
    if (st != state.end()) s->cost_state_bytes.Set(st->second);
    // Rows and CPU are monotone counters — delta since the previous call;
    // state is an instantaneous footprint — counted as-is.
    const int64_t accum =
        s->cost_rows.Value() + s->cost_cpu_nanos.Value() / 1000;
    cumulative[id] = accum;
    const auto prev = metered_prev_.find(id);
    const int64_t delta =
        accum - (prev == metered_prev_.end() ? 0 : prev->second);
    recent[id] = delta + state_units;
    recent_total += recent[id];
  }
  metered_prev_ = std::move(cumulative);
  // Live refinement: re-apportion the fleet's predicted cost by the
  // observed shares (skipped on an idle interval — no signal).
  if (admission_.enabled() && recent_total > 0) {
    for (const auto& [id, cost] : recent) {
      admission_.ObserveMeteredShare(
          id, static_cast<double>(cost) / recent_total);
    }
  }
  return recent;
}

size_t AStreamJob::QueuedElements() const {
  auto* threaded = dynamic_cast<spe::ThreadedRunner*>(runner_.get());
  return threaded == nullptr ? 0 : threaded->TotalQueuedElements();
}

obs::MetricsRegistry::Snapshot AStreamJob::MetricsSnapshot() {
  if (metrics_.enabled()) {
    {
      std::lock_guard<std::mutex> lock(session_mutex_);
      metrics_.GetGauge("session.active_queries")
          ->Set(static_cast<int64_t>(session_.num_active()));
      metrics_.GetGauge("session.pending_queries")
          ->Set(static_cast<int64_t>(session_.num_pending()));
      metrics_.GetGauge("session.num_slots")
          ->Set(static_cast<int64_t>(session_.num_slots()));
    }
    {
      // Data-plane sharing drill-down: how often the router's per-query
      // fan-out shared a CoW row vs. materialized one, and the slice-store
      // arena footprint.
      const OperatorStats s = CollectStats();
      metrics_.GetGauge("router.rows_shared")->Set(s.router_rows_shared);
      metrics_.GetGauge("router.rows_copied")->Set(s.router_rows_copied);
      metrics_.GetGauge("state.arena_bytes")->Set(s.state_arena_bytes);
      // Cross-window sharing drill-down (DESIGN.md §12): arrangement memo
      // effectiveness and the slicer's factor-rewrite decisions.
      metrics_.GetGauge("arrange.memo_hits")->Set(s.arrange_memo_hits);
      metrics_.GetGauge("arrange.memo_misses")->Set(s.arrange_memo_misses);
      metrics_.GetGauge("arrange.memo_bytes")->Set(s.arrange_memo_bytes);
      metrics_.GetGauge("slicer.factor_rewrites")->Set(s.factor_rewrites);
      metrics_.GetGauge("slicer.factor_reuses")->Set(s.factor_reuses);
      metrics_.GetGauge("slicer.factor_fallbacks")->Set(s.factor_fallbacks);
      if (options_.topology == TopologyKind::kMultiway) {
        // Multiway sharing drill-down (DESIGN.md §15): chain-memo
        // effectiveness and common-subexpression attachment.
        metrics_.GetGauge("mjoin.chains_computed")
            ->Set(s.mjoin_chains_computed);
        metrics_.GetGauge("mjoin.chains_reused")
            ->Set(s.mjoin_chains_reused);
        metrics_.GetGauge("mjoin.subjoins_built")->Set(s.subjoins_built);
        metrics_.GetGauge("mjoin.subjoins_attached")
            ->Set(s.subjoins_attached);
        metrics_.GetGauge("mjoin.subjoin_nodes")->Set(s.subjoin_nodes);
      }
      metrics_.GetGauge("state.checkpoints_retained")
          ->Set(static_cast<int64_t>(store_->NumRetained()));
      if (governor_ != nullptr) {
        metrics_.GetGauge("storage.resident_bytes")
            ->Set(governor_->total_resident());
        metrics_.GetGauge("storage.budget_bytes")->Set(governor_->budget());
        metrics_.GetGauge("storage.reload_saves")->Set(s.reload_saves);
      }
      if (compactor_ != nullptr) {
        metrics_.GetGauge("storage.compaction_runs")
            ->Set(compactor_->runs_compacted());
        metrics_.GetGauge("storage.compaction_ms")
            ->Set(compactor_->total_ms());
      }
      if (spill_space_ != nullptr) {
        // Both totals are exported so a sharded view can recompute the
        // ratio instead of summing it (obs::MergeSnapshots).
        const int64_t raw = spill_space_->total_spill_raw_bytes();
        const int64_t disk = spill_space_->total_spill_bytes();
        metrics_.GetGauge("storage.spilled_raw_bytes")->Set(raw);
        metrics_.GetGauge("storage.spilled_disk_bytes")->Set(disk);
        metrics_.GetGauge("storage.compressed_ratio_bp")
            ->Set(obs::CompressedRatioBp(disk, raw));
      }
    }
    if (options_.meter_costs) {
      // Per-query cost attribution (DESIGN.md §14): refresh the state-byte
      // apportionment, then mirror each active query's meters as
      // query.<id>.cost_* gauges so one snapshot carries the whole bill.
      const std::map<QueryId, int64_t> state = ComputeStateShares();
      std::vector<QueryId> active;
      {
        std::lock_guard<std::mutex> lock(session_mutex_);
        active = session_.ActiveIds();
      }
      for (QueryId id : active) {
        obs::QuerySeries* s = metrics_.SeriesFor(id);
        if (s == nullptr) continue;
        const auto st = state.find(id);
        s->cost_state_bytes.Set(st == state.end() ? 0 : st->second);
        const std::string prefix = "query." + std::to_string(id) + ".";
        metrics_.GetGauge(prefix + "cost_rows")->Set(s->cost_rows.Value());
        metrics_.GetGauge(prefix + "cost_cpu_nanos")
            ->Set(s->cost_cpu_nanos.Value());
        metrics_.GetGauge(prefix + "cost_state_bytes")
            ->Set(s->cost_state_bytes.Value());
      }
    }
    if (admission_.enabled()) {
      metrics_.GetGauge("admission.queued_now")
          ->Set(static_cast<int64_t>(admission_queue_.size()));
      metrics_.GetGauge("admission.active_queries")
          ->Set(static_cast<int64_t>(admission_.num_admitted()));
      metrics_.GetGauge("admission.predicted_cost_x1000")
          ->Set(static_cast<int64_t>(admission_.TotalPredicted() * 1000));
    }
    if (runner_ != nullptr) {
      auto* threaded = dynamic_cast<spe::ThreadedRunner*>(runner_.get());
      metrics_.GetGauge("runner.queued_elements")
          ->Set(threaded == nullptr
                    ? 0
                    : static_cast<int64_t>(threaded->TotalQueuedElements()));
      for (int s = 0; s < runner_->NumStages(); ++s) {
        const std::string prefix = "stage." + runner_->StageName(s) + ".";
        metrics_.GetGauge(prefix + "records_in")
            ->Set(runner_->StageRecordsIn(s));
        metrics_.GetGauge(prefix + "records_out")
            ->Set(runner_->StageRecordsOut(s));
        if (threaded != nullptr) {
          metrics_.GetGauge(prefix + "queue_depth")
              ->Set(static_cast<int64_t>(threaded->StageQueuedElements(s)));
          if (threaded->use_spsc_rings()) {
            // Fill fraction in [0, 1], exported in basis points so the
            // integer gauge keeps two decimal digits of resolution.
            metrics_
                .GetGauge("edge." + runner_->StageName(s) +
                          ".ring_occupancy_bp")
                ->Set(static_cast<int64_t>(
                    threaded->StageRingOccupancy(s) * 10000.0));
          }
        }
      }
    }
  }
  return metrics_.TakeSnapshot();
}

}  // namespace astream::core
