#include "spe/runner.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "fault/injector.h"

namespace astream::spe {
namespace internal {

int InstanceForKey(Value key, int parallelism) {
  uint64_t h = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 32;
  return static_cast<int>(h % static_cast<uint64_t>(parallelism));
}

namespace {

int64_t SenderKey(int port, int sender) {
  return (static_cast<int64_t>(port) << 32) | static_cast<uint32_t>(sender);
}

}  // namespace

/// Collector passed to the operator: counts and forwards emitted records.
class InstanceRuntime::RecordCollector : public Collector {
 public:
  explicit RecordCollector(InstanceRuntime* owner) : owner_(owner) {}
  void Emit(StreamElement element) override {
    assert(element.kind == ElementKind::kRecord &&
           "operators may only emit records; the runtime forwards control");
    owner_->records_out_.fetch_add(1, std::memory_order_relaxed);
    owner_->emit_record(std::move(element));
  }

 private:
  InstanceRuntime* owner_;
};

InstanceRuntime::InstanceRuntime(int stage, int instance,
                                 std::unique_ptr<Operator> op)
    : stage_(stage), instance_(instance), op_(std::move(op)) {
  collector_ = std::make_unique<RecordCollector>(this);
}

void InstanceRuntime::AddExpectedSender(int port, int sender_gid) {
  const auto [it, inserted] =
      senders_.try_emplace(SenderKey(port, sender_gid));
  (void)it;
  assert(inserted && "duplicate (port, sender)");
  ++total_senders_;
}

Status InstanceRuntime::Open(const OperatorContext& ctx) {
  return op_->Open(ctx);
}

InstanceRuntime::SenderState& InstanceRuntime::GetSender(int port,
                                                         int sender) {
  auto it = senders_.find(SenderKey(port, sender));
  assert(it != senders_.end() && "element from undeclared sender");
  return it->second;
}

void InstanceRuntime::DeliverBatch(BatchEnvelope&& batch) {
  SenderState& st = GetSender(batch.port, batch.sender);
  if (st.blocked) {
    st.pending.push_back(std::move(batch));
    return;
  }
  HandleBatch(batch.port, batch.sender, std::move(batch.elements));
  DrainPending();
}

void InstanceRuntime::HandleBatch(int port, int sender,
                                  ElementBatch&& elements) {
  SenderState& st = GetSender(port, sender);
  StreamElement* el = elements.data();
  const size_t n = elements.size();
  size_t i = 0;
  while (i < n) {
    if (el[i].kind == ElementKind::kRecord) {
      // Hand the contiguous record run to the operator as one call.
      scratch_records_.clear();
      while (i < n && el[i].kind == ElementKind::kRecord) {
        scratch_records_.push_back(std::move(el[i].record));
        ++i;
      }
      records_in_.fetch_add(static_cast<int64_t>(scratch_records_.size()),
                            std::memory_order_relaxed);
      if (fault::FaultInjector* inj = fault::ActiveInjector()) {
        // kOperatorProcess: kThrow models an operator crash right where a
        // genuine operator bug would surface (poisons the task in threaded
        // mode; propagates to the caller in sync mode).
        const fault::FaultDecision d =
            inj->Decide(fault::FaultPoint::kOperatorProcess, stage_);
        if (d.action == fault::FaultAction::kDelay) {
          std::this_thread::sleep_for(std::chrono::microseconds(d.delay_us));
        } else if (d.action != fault::FaultAction::kNone) {
          throw fault::InjectedFault(
              "injected operator crash at stage " + std::to_string(stage_) +
              "/" + std::to_string(instance_));
        }
      }
      op_->ProcessBatch(port, scratch_records_, collector_.get());
      continue;
    }
    HandleControl(st, std::move(el[i]));
    ++i;
    // A marker may have blocked this sender mid-batch. Park the unprocessed
    // tail at the FRONT of the pending queue so order is preserved when the
    // marker fires and unblocks us.
    if (st.blocked && i < n) {
      BatchEnvelope rest;
      rest.port = port;
      rest.sender = sender;
      for (; i < n; ++i) rest.elements.Add(std::move(el[i]));
      st.pending.push_front(std::move(rest));
      return;
    }
  }
}

void InstanceRuntime::HandleControl(SenderState& st, StreamElement&& el) {
  switch (el.kind) {
    case ElementKind::kRecord:
      assert(false && "records are handled by HandleBatch");
      break;
    case ElementKind::kWatermark:
      if (el.watermark > st.watermark) {
        st.watermark = el.watermark;
        RecomputeWatermark();
      }
      break;
    case ElementKind::kMarker:
      HandleMarker(st, el.marker);
      break;
    case ElementKind::kDone:
      if (!st.done) {
        st.done = true;
        ++done_senders_;
        st.watermark = kMaxTimestamp;
        RecomputeWatermark();
        if (aligning_ && aligned_count_ + done_senders_ >= total_senders_) {
          FireMarker(aligning_marker_);
        }
        CheckAllDone();
      }
      break;
  }
}

void InstanceRuntime::HandleMarker(SenderState& st,
                                   const ControlMarker& marker) {
  if (!aligning_) {
    aligning_ = true;
    aligning_marker_ = marker;
    aligned_count_ = 0;
  } else {
    assert(aligning_marker_.kind == marker.kind &&
           aligning_marker_.epoch == marker.epoch &&
           "senders must deliver markers in one global order");
  }
  st.blocked = true;
  ++aligned_count_;
  if (aligned_count_ + done_senders_ >= total_senders_) {
    FireMarker(aligning_marker_);
  }
}

void InstanceRuntime::FireMarker(const ControlMarker& marker) {
  aligning_ = false;
  for (auto& [key, st] : senders_) st.blocked = false;
  if (marker.kind == MarkerKind::kCheckpointBarrier) {
    // Deliver the barrier to the operator BEFORE snapshotting so the
    // snapshot captures post-barrier bookkeeping (e.g. the router's output
    // epoch advances to this barrier's id). No operator emits records on a
    // checkpoint barrier, so the snapshot still sees exactly the aligned
    // pre-barrier data state.
    op_->OnMarker(marker, collector_.get());
    if (snapshot) {
      Status s = Status::OK();
      if (fault::FaultInjector* inj = fault::ActiveInjector()) {
        // kSnapshot: kFail loses this instance's contribution, so the
        // checkpoint never completes and recovery falls back to the last
        // complete one; kThrow crashes the task at the barrier itself.
        const fault::FaultDecision d =
            inj->Decide(fault::FaultPoint::kSnapshot, stage_);
        if (d.action == fault::FaultAction::kFail) {
          s = Status::Internal("injected snapshot failure");
        } else if (d.action == fault::FaultAction::kThrow) {
          throw fault::InjectedFault("injected crash at checkpoint barrier " +
                                     std::to_string(marker.epoch));
        }
      }
      StateWriter writer;
      if (s.ok()) s = op_->SnapshotState(&writer);
      if (!s.ok()) {
        ASTREAM_LOG(kError, "runner")
            << "snapshot failed for stage " << stage_ << "/" << instance_
            << ": " << s.ToString();
      } else {
        snapshot(marker.epoch, stage_, instance_, writer.TakeBuffer());
      }
    }
    forward_control(StreamElement::MakeMarker(marker));
    return;
  }
  op_->OnMarker(marker, collector_.get());
  forward_control(StreamElement::MakeMarker(marker));
}

void InstanceRuntime::RecomputeWatermark() {
  TimestampMs min_wm = kMaxTimestamp;
  for (const auto& [key, st] : senders_) {
    if (st.watermark < min_wm) min_wm = st.watermark;
  }
  if (min_wm > current_watermark_) {
    current_watermark_ = min_wm;
    op_->OnWatermark(min_wm, collector_.get());
    forward_control(StreamElement::MakeWatermark(min_wm));
  }
}

void InstanceRuntime::CheckAllDone() {
  if (finished_ || done_senders_ < total_senders_) return;
  op_->Close(collector_.get());
  forward_control(StreamElement::MakeDone());
  finished_ = true;
}

void InstanceRuntime::DrainPending() {
  if (draining_) return;
  draining_ = true;
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& [key, st] : senders_) {
      while (!st.blocked && !st.pending.empty()) {
        BatchEnvelope batch = std::move(st.pending.front());
        st.pending.pop_front();
        // HandleBatch may re-block the sender mid-batch and park the tail
        // back at the front; the loop condition re-checks `blocked`.
        HandleBatch(batch.port, batch.sender, std::move(batch.elements));
        progress = true;
      }
    }
  }
  draining_ = false;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Shared wiring helpers
// ---------------------------------------------------------------------------

namespace {

std::vector<std::vector<internal::DownstreamEdge>> BuildDownstream(
    const TopologySpec& spec) {
  std::vector<std::vector<internal::DownstreamEdge>> down(
      spec.stages().size());
  for (size_t s = 0; s < spec.stages().size(); ++s) {
    const StageSpec& stage = spec.stages()[s];
    int replicas = 0;  // a chained stage's replicas, numbered edge by edge
    for (const EdgeSpec& e : stage.inputs) {
      internal::DownstreamEdge edge{static_cast<int>(s), e.port,
                                    e.partitioning};
      if (stage.chained) {
        edge.replica_base = replicas;
        replicas += spec.stages()[e.upstream_stage].parallelism;
      }
      down[e.upstream_stage].push_back(edge);
    }
  }
  return down;
}

std::vector<int> BuildGidBases(const TopologySpec& spec) {
  std::vector<int> bases(spec.stages().size());
  int next = 0;
  for (size_t s = 0; s < spec.stages().size(); ++s) {
    bases[s] = next;
    next += spec.stages()[s].parallelism;
  }
  return bases;
}

int ExternalSenderGid(int input_index) { return -1 - input_index; }

/// Registers all expected senders of one instance.
void RegisterSenders(internal::InstanceRuntime* rt, const TopologySpec& spec,
                     const std::vector<int>& gid_base, int stage) {
  for (const EdgeSpec& e : spec.stages()[stage].inputs) {
    const StageSpec& up = spec.stages()[e.upstream_stage];
    for (int u = 0; u < up.parallelism; ++u) {
      rt->AddExpectedSender(e.port, gid_base[e.upstream_stage] + u);
    }
  }
  for (size_t in = 0; in < spec.external_inputs().size(); ++in) {
    const ExternalInputSpec& ext = spec.external_inputs()[in];
    if (ext.target_stage == stage) {
      rt->AddExpectedSender(ext.port,
                            ExternalSenderGid(static_cast<int>(in)));
    }
  }
}

OperatorContext MakeContext(const TopologySpec& spec, int stage,
                            int instance) {
  OperatorContext ctx;
  ctx.stage_index = stage;
  ctx.instance_index = instance;
  ctx.parallelism = spec.NumInstances(stage);
  ctx.stage_name = spec.stages()[stage].name;
  ctx.clock = WallClock::Default();
  return ctx;
}

/// One runtime slot per instance of every stage, replicas included.
internal::RuntimeTable MakeRuntimeTable(const TopologySpec& spec) {
  internal::RuntimeTable table(spec.stages().size());
  for (size_t s = 0; s < table.size(); ++s) {
    table[s].resize(spec.NumInstances(static_cast<int>(s)));
  }
  return table;
}

/// Empty output buffers for one instance of a stage with downstream edges
/// `edges`, indexed [edge][target instance]. A chained edge has one
/// target: the instance's own replica.
std::vector<std::vector<ElementBatch>> MakeOutputBuffers(
    const TopologySpec& spec,
    const std::vector<internal::DownstreamEdge>& edges) {
  std::vector<std::vector<ElementBatch>> out(edges.size());
  for (size_t e = 0; e < edges.size(); ++e) {
    out[e].resize(edges[e].chained()
                      ? 1
                      : spec.stages()[edges[e].target_stage].parallelism);
  }
  return out;
}

/// Builds and opens the replicas that producer (stage, instance) owns,
/// indexed by downstream edge (null for edges into ordinary stages), and
/// files each in `runtimes`. A replica's only sender is the producer on
/// the edge's port; its records and control elements go to `sink`, which
/// the replicas hold by reference (the runner's own member outlives them).
Status OpenReplicas(
    const TopologySpec& spec,
    const std::vector<internal::DownstreamEdge>& edges,
    const std::vector<int>& gid_base, int stage, int instance,
    const SinkFn& sink, const SnapshotFn& snapshot,
    std::vector<std::unique_ptr<internal::InstanceRuntime>>* replicas,
    internal::RuntimeTable* runtimes) {
  replicas->resize(edges.size());
  for (size_t e = 0; e < edges.size(); ++e) {
    const internal::DownstreamEdge& edge = edges[e];
    if (!edge.chained()) continue;
    const int target = edge.target_stage;
    const int replica = edge.replica_base + instance;
    auto rt = std::make_unique<internal::InstanceRuntime>(
        target, replica, spec.stages()[target].factory(replica));
    rt->AddExpectedSender(edge.port, gid_base[stage] + instance);
    auto to_sink = [&sink, target, replica](const StreamElement& el) {
      if (sink) sink(target, replica, el);
    };
    rt->emit_record = to_sink;
    rt->forward_control = to_sink;
    rt->snapshot = snapshot;
    ASTREAM_RETURN_IF_ERROR(rt->Open(MakeContext(spec, target, replica)));
    (*runtimes)[target][replica] = rt.get();
    (*replicas)[e] = std::move(rt);
  }
  return Status::OK();
}

/// Restores every runtime in `runtimes` from its (stage, instance) entry.
Status RestoreRuntimes(const internal::RuntimeTable& runtimes,
                       const CheckpointStore::Checkpoint& checkpoint) {
  for (size_t s = 0; s < runtimes.size(); ++s) {
    for (size_t i = 0; i < runtimes[s].size(); ++i) {
      auto it = checkpoint.operator_state.find(CheckpointStore::StateKey(
          static_cast<int>(s), static_cast<int>(i)));
      if (it == checkpoint.operator_state.end()) {
        return Status::NotFound("missing checkpoint state for stage " +
                                std::to_string(s) + "/" + std::to_string(i));
      }
      StateReader reader(it->second);
      ASTREAM_RETURN_IF_ERROR(runtimes[s][i]->op()->RestoreState(&reader));
      if (!reader.Ok()) {
        return Status::Internal("corrupt checkpoint state for stage " +
                                std::to_string(s));
      }
    }
  }
  return Status::OK();
}

/// Appends an emitted record to the output buffers of every edge it
/// travels (a single-target edge, such as a chained one: its target; hash
/// edges: the key's instance; other edges: every instance) and calls
/// `ship(edge, target)` for each buffer that reaches `batch_size`. Both
/// runners cut output batches through this one rule.
template <typename Ship>
void BufferRecord(const std::vector<internal::DownstreamEdge>& edges,
                  std::vector<std::vector<ElementBatch>>& out,
                  size_t batch_size, StreamElement&& el, Ship&& ship) {
  const size_t num_edges = edges.size();
  for (size_t e = 0; e < num_edges; ++e) {
    const int par = static_cast<int>(out[e].size());
    if (par == 1 || edges[e].partitioning == Partitioning::kHash) {
      const int i =
          par == 1 ? 0 : internal::InstanceForKey(el.record.row.key(), par);
      ElementBatch& buf = out[e][i];
      if (e + 1 == num_edges) {
        buf.Add(std::move(el));
      } else {
        buf.Add(el);
      }
      if (buf.size() >= batch_size) ship(e, i);
    } else {
      for (int i = 0; i < par; ++i) {
        ElementBatch& buf = out[e][i];
        buf.Add(el);
        if (buf.size() >= batch_size) ship(e, i);
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SyncRunner
// ---------------------------------------------------------------------------

SyncRunner::SyncRunner(TopologySpec spec, SinkFn sink, SnapshotFn snapshot,
                       size_t batch_size)
    : spec_(std::move(spec)),
      sink_(std::move(sink)),
      snapshot_(std::move(snapshot)),
      batch_size_(batch_size == 0 ? 1 : batch_size) {}

SyncRunner::~SyncRunner() = default;

Status SyncRunner::Start() {
  ASTREAM_RETURN_IF_ERROR(spec_.Validate());
  downstream_ = BuildDownstream(spec_);
  gid_base_ = BuildGidBases(spec_);

  const auto& stages = spec_.stages();
  runtimes_ = MakeRuntimeTable(spec_);
  instances_.resize(stages.size());
  for (size_t s = 0; s < stages.size(); ++s) {
    const StageSpec& stage = stages[s];
    if (stage.chained) continue;  // replicas open with their producers
    for (int i = 0; i < stage.parallelism; ++i) {
      auto rt = std::make_unique<internal::InstanceRuntime>(
          static_cast<int>(s), i, stage.factory(i));
      RegisterSenders(rt.get(), spec_, gid_base_, static_cast<int>(s));
      const int stage_index = static_cast<int>(s);
      const int instance_index = i;
      rt->emit_record = [this, stage_index,
                         instance_index](StreamElement&& el) {
        RouteRecord(stage_index, instance_index, std::move(el));
      };
      rt->forward_control = [this, stage_index,
                             instance_index](const StreamElement& el) {
        RouteControl(stage_index, instance_index, el);
      };
      if (snapshot_) rt->snapshot = snapshot_;
      ASTREAM_RETURN_IF_ERROR(
          rt->Open(MakeContext(spec_, stage_index, instance_index)));
      Instance inst{std::move(rt), MakeOutputBuffers(spec_, downstream_[s]),
                    {}};
      ASTREAM_RETURN_IF_ERROR(OpenReplicas(
          spec_, downstream_[s], gid_base_, stage_index, instance_index,
          sink_, snapshot_, &inst.replicas, &runtimes_));
      runtimes_[s][i] = inst.runtime.get();
      instances_[s].push_back(std::move(inst));
    }
  }
  started_ = true;
  return Status::OK();
}

void SyncRunner::DeliverTo(int stage, int instance, BatchEnvelope&& batch) {
  instances_[stage][instance].runtime->DeliverBatch(std::move(batch));
  // End-of-delivery flush: a partial buffer never waits for more input.
  FlushOutputs(stage, instance);
}

void SyncRunner::DeliverOnEdge(int stage, int instance, size_t edge_idx,
                               int target, BatchEnvelope&& batch) {
  const internal::DownstreamEdge& edge = downstream_[stage][edge_idx];
  if (edge.chained()) {
    // The replica hands everything to the sink: it has no buffers to flush.
    instances_[stage][instance].replicas[edge_idx]->DeliverBatch(
        std::move(batch));
  } else {
    DeliverTo(edge.target_stage, target, std::move(batch));
  }
}

void SyncRunner::RouteRecord(int stage, int instance, StreamElement&& el) {
  if (spec_.stages()[stage].is_sink && sink_) {
    sink_(stage, instance, el);
  }
  BufferRecord(downstream_[stage], instances_[stage][instance].out,
               batch_size_, std::move(el), [&](size_t e, int target) {
                 FlushBuffer(stage, instance, e, target);
               });
}

void SyncRunner::RouteControl(int stage, int instance,
                              const StreamElement& el) {
  if (spec_.stages()[stage].is_sink && sink_) {
    sink_(stage, instance, el);
  }
  // Control elements are batch boundaries: records emitted before them
  // reach every target first. A chained edge's one target is the replica.
  FlushOutputs(stage, instance);
  const int sender = gid_base_[stage] + instance;
  const size_t num_edges = downstream_[stage].size();
  for (size_t e = 0; e < num_edges; ++e) {
    const int targets =
        static_cast<int>(instances_[stage][instance].out[e].size());
    for (int i = 0; i < targets; ++i) {
      DeliverOnEdge(stage, instance, e, i,
                    BatchEnvelope::Single(downstream_[stage][e].port, sender,
                                          el));
    }
  }
}

void SyncRunner::FlushBuffer(int stage, int instance, size_t edge_idx,
                             int target) {
  ElementBatch& buf = instances_[stage][instance].out[edge_idx][target];
  if (buf.empty()) return;
  DeliverOnEdge(stage, instance, edge_idx, target,
                BatchEnvelope{downstream_[stage][edge_idx].port,
                              gid_base_[stage] + instance, std::move(buf)});
}

void SyncRunner::FlushOutputs(int stage, int instance) {
  // Sized by the instance's own buffers: a chained edge has one target,
  // and its stage has no instances of its own.
  const size_t num_edges = instances_[stage][instance].out.size();
  for (size_t e = 0; e < num_edges; ++e) {
    const int targets =
        static_cast<int>(instances_[stage][instance].out[e].size());
    for (int i = 0; i < targets; ++i) FlushBuffer(stage, instance, e, i);
  }
}

bool SyncRunner::Push(int input_index, StreamElement element) {
  if (cancelled_) return false;
  RouteExternal(input_index, std::move(element));
  return true;
}

bool SyncRunner::Push(int input_index, ElementBatch batch) {
  if (cancelled_) return false;
  const ExternalInputSpec& ext = spec_.external_inputs()[input_index];
  const int par = static_cast<int>(instances_[ext.target_stage].size());
  const int sender = ExternalSenderGid(input_index);
  std::vector<ElementBatch> sub(par);
  auto flush = [&] {
    for (int i = 0; i < par; ++i) {
      if (sub[i].empty()) continue;
      BatchEnvelope be;
      be.port = ext.port;
      be.sender = sender;
      be.elements = std::move(sub[i]);
      DeliverTo(ext.target_stage, i, std::move(be));
    }
  };
  for (StreamElement& el : batch) {
    if (el.kind == ElementKind::kRecord) {
      if (ext.partitioning == Partitioning::kHash) {
        const int i = internal::InstanceForKey(el.record.row.key(), par);
        sub[i].Add(std::move(el));
      } else {
        for (int i = 0; i < par; ++i) sub[i].Add(el);
      }
    } else {
      // Control element: batch boundary. Drain buffered records first so
      // per-edge order is preserved, then broadcast it.
      flush();
      for (int i = 0; i < par; ++i) {
        DeliverTo(ext.target_stage, i,
                  BatchEnvelope::Single(ext.port, sender, el));
      }
    }
  }
  flush();
  return true;
}

void SyncRunner::RouteExternal(int input_index, StreamElement element) {
  const ExternalInputSpec& ext = spec_.external_inputs()[input_index];
  const int par = static_cast<int>(instances_[ext.target_stage].size());
  const int sender = ExternalSenderGid(input_index);
  if (element.kind == ElementKind::kRecord &&
      ext.partitioning == Partitioning::kHash) {
    const int i = internal::InstanceForKey(element.record.row.key(), par);
    DeliverTo(ext.target_stage, i,
              BatchEnvelope::Single(ext.port, sender, std::move(element)));
    return;
  }
  for (int i = 0; i < par; ++i) {
    DeliverTo(ext.target_stage, i,
              BatchEnvelope::Single(ext.port, sender, element));
  }
}

void SyncRunner::InjectMarker(const ControlMarker& marker) {
  for (size_t in = 0; in < spec_.external_inputs().size(); ++in) {
    RouteExternal(static_cast<int>(in), StreamElement::MakeMarker(marker));
  }
}

void SyncRunner::FinishAndWait() {
  if (finished_ || cancelled_) return;
  for (size_t in = 0; in < spec_.external_inputs().size(); ++in) {
    RouteExternal(static_cast<int>(in),
                  StreamElement::MakeWatermark(kMaxTimestamp));
    RouteExternal(static_cast<int>(in), StreamElement::MakeDone());
  }
  finished_ = true;
}

void SyncRunner::Cancel() { cancelled_ = true; }

Status SyncRunner::Restore(const CheckpointStore::Checkpoint& checkpoint) {
  return RestoreRuntimes(runtimes_, checkpoint);
}

int64_t SyncRunner::StageRecordsIn(int stage) const {
  int64_t n = 0;
  for (const auto* rt : runtimes_[stage]) n += rt->records_in();
  return n;
}

static int NumStagesOf(const TopologySpec& spec) {
  return static_cast<int>(spec.stages().size());
}

int SyncRunner::NumStages() const { return NumStagesOf(spec_); }

const std::string& SyncRunner::StageName(int stage) const {
  return spec_.stages()[stage].name;
}

int64_t SyncRunner::StageRecordsOut(int stage) const {
  int64_t n = 0;
  for (const auto* rt : runtimes_[stage]) n += rt->records_out();
  return n;
}

// ---------------------------------------------------------------------------
// ThreadedRunner
// ---------------------------------------------------------------------------

ThreadedRunner::ThreadedRunner(TopologySpec spec, SinkFn sink,
                               SnapshotFn snapshot, size_t channel_capacity,
                               size_t batch_size, bool use_spsc_rings)
    : spec_(std::move(spec)),
      sink_(std::move(sink)),
      snapshot_(std::move(snapshot)),
      channel_capacity_(channel_capacity),
      batch_size_(batch_size == 0 ? 1 : batch_size),
      use_spsc_rings_(use_spsc_rings) {}

ThreadedRunner::~ThreadedRunner() { Cancel(); }

Status ThreadedRunner::Start() {
  ASTREAM_RETURN_IF_ERROR(spec_.Validate());
  downstream_ = BuildDownstream(spec_);
  gid_base_ = BuildGidBases(spec_);
  for (size_t in = 0; in < spec_.external_inputs().size(); ++in) {
    input_mutexes_.push_back(std::make_unique<std::mutex>());
  }

  const auto& stages = spec_.stages();
  runtimes_ = MakeRuntimeTable(spec_);
  tasks_.resize(stages.size());
  for (size_t s = 0; s < stages.size(); ++s) {
    const StageSpec& stage = stages[s];
    if (stage.chained) continue;  // replicas run on their producers' tasks
    for (int i = 0; i < stage.parallelism; ++i) {
      auto task = std::make_unique<Task>();
      task->runtime = std::make_unique<internal::InstanceRuntime>(
          static_cast<int>(s), i, stage.factory(i));
      task->inbox = std::make_unique<TaskInbox>(channel_capacity_);
      // Every instance keeps a mutex channel for producers without a
      // single-producer guarantee (external ingress; all edges in the
      // mutex-fallback mode).
      task->inbox->EnsureExternal();
      RegisterSenders(task->runtime.get(), spec_, gid_base_,
                      static_cast<int>(s));
      task->out = MakeOutputBuffers(spec_, downstream_[s]);
      const int stage_index = static_cast<int>(s);
      const int instance_index = i;
      task->runtime->emit_record = [this, stage_index,
                                    instance_index](StreamElement&& el) {
        RouteRecord(stage_index, instance_index, std::move(el));
      };
      task->runtime->forward_control =
          [this, stage_index, instance_index](const StreamElement& el) {
            RouteControl(stage_index, instance_index, el);
          };
      if (snapshot_) task->runtime->snapshot = snapshot_;
      ASTREAM_RETURN_IF_ERROR(
          task->runtime->Open(MakeContext(spec_, stage_index,
                                          instance_index)));
      ASTREAM_RETURN_IF_ERROR(OpenReplicas(
          spec_, downstream_[s], gid_base_, stage_index, instance_index,
          sink_, snapshot_, &task->replicas, &runtimes_));
      runtimes_[s][i] = task->runtime.get();
      tasks_[s].push_back(std::move(task));
    }
  }
  // Wire one SPSC ring per internal (upstream-instance -> downstream-
  // instance) edge: each producing task is exactly one thread, so the
  // single-producer contract holds by construction. Must happen before
  // threads spawn — inbox wiring is not thread-safe.
  if (use_spsc_rings_) {
    size_t ring_batches =
        channel_capacity_ / std::max<size_t>(size_t{1}, batch_size_);
    if (ring_batches < 8) ring_batches = 8;
    if (ring_batches > 256) ring_batches = 256;
    for (size_t s = 0; s < stages.size(); ++s) {
      for (auto& task : tasks_[s]) {
        task->out_rings.resize(downstream_[s].size());
        for (size_t e = 0; e < downstream_[s].size(); ++e) {
          if (downstream_[s][e].chained()) continue;  // direct calls
          auto& targets = tasks_[downstream_[s][e].target_stage];
          task->out_rings[e].resize(targets.size());
          for (size_t i = 0; i < targets.size(); ++i) {
            task->out_rings[e][i] = targets[i]->inbox->AddRing(ring_batches);
          }
        }
      }
    }
  }
  // Spawn threads only after all routing state exists.
  for (auto& stage_tasks : tasks_) {
    for (auto& task : stage_tasks) {
      Task* t = task.get();
      t->thread = std::thread([this, t] { TaskLoop(t); });
    }
  }
  started_ = true;
  return Status::OK();
}

void ThreadedRunner::TaskLoop(Task* task) {
  const int stage = task->runtime->stage();
  try {
    while (true) {
      if (fault::FaultInjector* inj = fault::ActiveInjector()) {
        // kConsumerStall: a slow consumer. The heartbeat below still
        // advances, but backlog builds; a kDelay long enough relative to
        // the watchdog's stall timeout freezes the heartbeat mid-sleep.
        const fault::FaultDecision d =
            inj->Decide(fault::FaultPoint::kConsumerStall, stage);
        if (d.action == fault::FaultAction::kDelay) {
          std::this_thread::sleep_for(std::chrono::microseconds(d.delay_us));
        }
      }
      std::optional<BatchEnvelope> batch = task->inbox->Pop();
      if (!batch.has_value()) break;  // all sources closed + drained
      task->runtime->DeliverBatch(std::move(*batch));
      // End-of-input-batch flush: a partially filled output buffer never
      // waits for more input, so added latency is bounded by one upstream
      // batch (the task-level linger policy).
      FlushTaskOutputs(task, stage);
      task->heartbeat.fetch_add(1, std::memory_order_relaxed);
      if (task->runtime->Finished()) break;
    }
  } catch (const std::exception& e) {
    // Failure capture: no silent thread death. The first failure poisons
    // the whole runner so every task quiesces and callers see the Status.
    Poison(Status::Internal("task " + StageName(stage) + "/" +
                            std::to_string(task->runtime->instance()) +
                            " failed: " + e.what()));
  }
}

void ThreadedRunner::Poison(const Status& status) {
  {
    std::lock_guard<std::mutex> lock(failure_mutex_);
    if (failure_.ok()) {
      failure_ = status;
      ASTREAM_LOG(kWarn, "runner")
          << "poisoned: " << status.ToString();
    }
  }
  poisoned_.store(true, std::memory_order_release);
  // Quiesce: closing every inbox lets sibling tasks drain and exit, and
  // unblocks any producer parked on a full ring/channel (their pushes fail,
  // which PushTo surfaces as kShutdown instead of blocking forever).
  for (auto& stage_tasks : tasks_) {
    for (auto& task : stage_tasks) task->inbox->Close();
  }
}

Status ThreadedRunner::Failure() const {
  std::lock_guard<std::mutex> lock(failure_mutex_);
  return failure_;
}

std::vector<ThreadedRunner::TaskHealthSample>
ThreadedRunner::SampleTaskHealth() const {
  std::vector<TaskHealthSample> samples;
  for (size_t s = 0; s < tasks_.size(); ++s) {
    for (size_t i = 0; i < tasks_[s].size(); ++i) {
      const Task& t = *tasks_[s][i];
      TaskHealthSample sample;
      sample.stage = static_cast<int>(s);
      sample.instance = static_cast<int>(i);
      sample.iterations = t.heartbeat.load(std::memory_order_relaxed);
      sample.queued = t.inbox->QueuedElements();
      samples.push_back(sample);
    }
  }
  return samples;
}

void ThreadedRunner::PushEdge(Task* task, int stage, size_t edge_idx,
                              int target, BatchEnvelope batch) {
  if (cancelled_.load(std::memory_order_relaxed)) return;
  const internal::DownstreamEdge& edge = downstream_[stage][edge_idx];
  const size_t n = batch.elements.size();
  if (edge.chained()) {
    // No queue and no other thread: the replica runs right here.
    task->replicas[edge_idx]->DeliverBatch(std::move(batch));
    if (edge_observer_) edge_observer_(edge.target_stage, n);
    return;
  }
  bool ok;
  if (!task->out_rings.empty()) {
    // Per-edge SPSC fast path; this task's thread is the sole producer.
    ok = task->out_rings[edge_idx][target]->Push(std::move(batch));
  } else {
    ok = tasks_[edge.target_stage][target]->inbox->PushExternal(
        std::move(batch));
  }
  if (!ok && !cancelled_.load(std::memory_order_relaxed)) {
    // A closed downstream edge outside cancellation (e.g. an injected
    // drop-to-closed) would be silent data loss; convert it into a
    // detected failure so recovery replays the lost elements.
    Poison(Status::Aborted("edge to stage " + StageName(edge.target_stage) +
                           " closed mid-stream (data loss)"));
  }
  if (ok && edge_observer_) edge_observer_(edge.target_stage, n);
}

void ThreadedRunner::PushExternalTo(int stage, int instance,
                                    BatchEnvelope batch) {
  if (cancelled_.load(std::memory_order_relaxed)) return;
  const size_t n = batch.elements.size();
  const bool ok = tasks_[stage][instance]->inbox->PushExternal(
      std::move(batch));
  if (!ok && !cancelled_.load(std::memory_order_relaxed)) {
    // No-op if already poisoned (expected failure of late pushes); a fresh
    // close under a healthy runner is detected data loss.
    Poison(Status::Aborted("external edge to stage " + StageName(stage) +
                           " closed mid-stream (data loss)"));
  }
  if (ok && edge_observer_) edge_observer_(stage, n);
}

void ThreadedRunner::DeliverTo(int stage, int instance, int port, int sender,
                               StreamElement element) {
  PushExternalTo(stage, instance,
                 BatchEnvelope::Single(port, sender, std::move(element)));
}

void ThreadedRunner::FlushBuffer(Task* task, int stage, size_t edge_idx,
                                 int target) {
  ElementBatch& buf = task->out[edge_idx][target];
  if (buf.empty()) return;
  const internal::DownstreamEdge& edge = downstream_[stage][edge_idx];
  BatchEnvelope be;
  be.port = edge.port;
  be.sender = gid_base_[stage] + task->runtime->instance();
  be.elements = std::move(buf);
  PushEdge(task, stage, edge_idx, target, std::move(be));
}

void ThreadedRunner::FlushTaskOutputs(Task* task, int stage) {
  for (size_t e = 0; e < task->out.size(); ++e) {
    for (size_t i = 0; i < task->out[e].size(); ++i) {
      FlushBuffer(task, stage, e, static_cast<int>(i));
    }
  }
}

void ThreadedRunner::RouteRecord(int stage, int instance,
                                 StreamElement&& el) {
  if (spec_.stages()[stage].is_sink && sink_) {
    sink_(stage, instance, el);
  }
  Task* task = tasks_[stage][instance].get();
  BufferRecord(downstream_[stage], task->out, batch_size_,
               std::move(el), [&](size_t e, int target) {
                 FlushBuffer(task, stage, e, target);
               });
}

void ThreadedRunner::RouteControl(int stage, int instance,
                                  const StreamElement& el) {
  if (spec_.stages()[stage].is_sink && sink_) {
    sink_(stage, instance, el);
  }
  Task* task = tasks_[stage][instance].get();
  // Control elements are batch boundaries: flush buffered records first so
  // per-edge FIFO order is preserved, then broadcast as singleton batches.
  // They MUST travel the same per-edge source (ring or channel) as this
  // sender's records — marker alignment only needs per-(port, sender) FIFO,
  // and that is exactly what one source per edge provides.
  // A chained edge's one target is the task's own replica.
  FlushTaskOutputs(task, stage);
  const int sender = gid_base_[stage] + instance;
  for (size_t e = 0; e < task->out.size(); ++e) {
    const int port = downstream_[stage][e].port;
    for (size_t i = 0; i < task->out[e].size(); ++i) {
      PushEdge(task, stage, e, static_cast<int>(i),
               BatchEnvelope::Single(port, sender, el));
    }
  }
}

bool ThreadedRunner::Push(int input_index, StreamElement element) {
  if (cancelled_.load(std::memory_order_relaxed) ||
      poisoned_.load(std::memory_order_acquire)) {
    return false;
  }
  const ExternalInputSpec& ext = spec_.external_inputs()[input_index];
  const int sender = ExternalSenderGid(input_index);
  const int par = spec_.stages()[ext.target_stage].parallelism;
  std::lock_guard<std::mutex> lock(*input_mutexes_[input_index]);
  if (element.kind == ElementKind::kRecord &&
      ext.partitioning == Partitioning::kHash) {
    const int i = internal::InstanceForKey(element.record.row.key(), par);
    DeliverTo(ext.target_stage, i, ext.port, sender, std::move(element));
  } else {
    for (int i = 0; i < par; ++i) {
      DeliverTo(ext.target_stage, i, ext.port, sender, element);
    }
  }
  return true;
}

bool ThreadedRunner::Push(int input_index, ElementBatch batch) {
  if (cancelled_.load(std::memory_order_relaxed) ||
      poisoned_.load(std::memory_order_acquire)) {
    return false;
  }
  const ExternalInputSpec& ext = spec_.external_inputs()[input_index];
  const int sender = ExternalSenderGid(input_index);
  const int par = spec_.stages()[ext.target_stage].parallelism;
  std::vector<ElementBatch> sub(par);
  std::lock_guard<std::mutex> lock(*input_mutexes_[input_index]);
  auto flush = [&] {
    for (int i = 0; i < par; ++i) {
      if (sub[i].empty()) continue;
      BatchEnvelope be;
      be.port = ext.port;
      be.sender = sender;
      be.elements = std::move(sub[i]);
      PushExternalTo(ext.target_stage, i, std::move(be));
    }
  };
  for (StreamElement& el : batch) {
    if (el.kind == ElementKind::kRecord) {
      if (ext.partitioning == Partitioning::kHash) {
        const int i = internal::InstanceForKey(el.record.row.key(), par);
        sub[i].Add(std::move(el));
      } else {
        for (int i = 0; i < par; ++i) sub[i].Add(el);
      }
    } else {
      // Control element: flush buffered records, then broadcast it.
      flush();
      for (int i = 0; i < par; ++i) {
        PushExternalTo(ext.target_stage, i,
                       BatchEnvelope::Single(ext.port, sender, el));
      }
    }
  }
  flush();
  return true;
}

void ThreadedRunner::InjectMarker(const ControlMarker& marker) {
  std::lock_guard<std::mutex> marker_lock(marker_mutex_);
  for (size_t in = 0; in < spec_.external_inputs().size(); ++in) {
    const ExternalInputSpec& ext = spec_.external_inputs()[in];
    const int sender = ExternalSenderGid(static_cast<int>(in));
    const int par = spec_.stages()[ext.target_stage].parallelism;
    std::lock_guard<std::mutex> lock(*input_mutexes_[in]);
    for (int i = 0; i < par; ++i) {
      DeliverTo(ext.target_stage, i, ext.port, sender,
                StreamElement::MakeMarker(marker));
    }
  }
}

void ThreadedRunner::FinishAndWait() {
  if (finished_ || !started_) return;
  if (!cancelled_.load()) {
    for (size_t in = 0; in < spec_.external_inputs().size(); ++in) {
      const ExternalInputSpec& ext = spec_.external_inputs()[in];
      const int sender = ExternalSenderGid(static_cast<int>(in));
      const int par = spec_.stages()[ext.target_stage].parallelism;
      std::lock_guard<std::mutex> lock(*input_mutexes_[in]);
      for (int i = 0; i < par; ++i) {
        DeliverTo(ext.target_stage, i, ext.port, sender,
                  StreamElement::MakeWatermark(kMaxTimestamp));
        DeliverTo(ext.target_stage, i, ext.port, sender,
                  StreamElement::MakeDone());
      }
    }
  }
  for (auto& stage_tasks : tasks_) {
    for (auto& task : stage_tasks) {
      if (task->thread.joinable()) task->thread.join();
    }
  }
  finished_ = true;
}

void ThreadedRunner::Cancel() {
  if (!started_ || finished_) return;
  cancelled_.store(true);
  for (auto& stage_tasks : tasks_) {
    for (auto& task : stage_tasks) task->inbox->Close();
  }
  for (auto& stage_tasks : tasks_) {
    for (auto& task : stage_tasks) {
      if (task->thread.joinable()) task->thread.join();
    }
  }
  finished_ = true;
}

Status ThreadedRunner::Restore(const CheckpointStore::Checkpoint& checkpoint) {
  // Restore must happen before any element flows; tasks are idle (blocked
  // on empty channels) and replicas run only on their tasks, so touching
  // operator state here is safe.
  return RestoreRuntimes(runtimes_, checkpoint);
}

int64_t ThreadedRunner::StageRecordsIn(int stage) const {
  int64_t n = 0;
  for (const auto* rt : runtimes_[stage]) n += rt->records_in();
  return n;
}

int64_t ThreadedRunner::StageRecordsOut(int stage) const {
  int64_t n = 0;
  for (const auto* rt : runtimes_[stage]) n += rt->records_out();
  return n;
}

int ThreadedRunner::NumStages() const { return NumStagesOf(spec_); }

const std::string& ThreadedRunner::StageName(int stage) const {
  return spec_.stages()[stage].name;
}

size_t ThreadedRunner::TotalQueuedElements() const {
  size_t n = 0;
  for (const auto& stage_tasks : tasks_) {
    for (const auto& t : stage_tasks) n += t->inbox->QueuedElements();
  }
  return n;
}

size_t ThreadedRunner::StageQueuedElements(int stage) const {
  size_t n = 0;
  for (const auto& t : tasks_[stage]) n += t->inbox->QueuedElements();
  return n;
}

double ThreadedRunner::StageRingOccupancy(int stage) const {
  double max_occ = 0.0;
  for (const auto& t : tasks_[stage]) {
    const double occ = t->inbox->MaxRingOccupancy();
    if (occ > max_occ) max_occ = occ;
  }
  return max_occ;
}

}  // namespace astream::spe
