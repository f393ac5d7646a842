#include "perfbench/workload.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace astream::perfbench {
namespace {

using Topology = core::AStreamJob::TopologyKind;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const char* TopologyName(Topology t) {
  switch (t) {
    case Topology::kAggregation:
      return "aggregation";
    case Topology::kJoin:
      return "join";
    case Topology::kComplex:
      return "complex";
    case Topology::kMultiway:
      return "multiway";
  }
  return "?";
}

int StagesOf(const WorkloadSpec& spec) {
  switch (spec.topology) {
    case Topology::kAggregation:
      return 3;  // selection, aggregation, router
    case Topology::kJoin:
      return 4;  // two selections, join, router
    case Topology::kMultiway:
    case Topology::kComplex:
      break;
  }
  return 0;
}

}  // namespace

int WorkloadSpec::Threads() const {
  int threads = 1;  // the generator, which is also the control thread
  if (threaded) {
    threads += StagesOf(*this) * shards;
    if (memory_budget_bytes > 0) threads += shards;  // compaction workers
  }
  if (shard_threads) threads += shards;
  return threads;
}

bool MakeWorkload(const std::string& name, int64_t timed_tuples,
                  WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "agg_churn") {
    // One threaded aggregation job (3 task threads) under continuous
    // submit/cancel churn: control plane, slicer, aggregation
    // arrangements, runner rings. No join, no shard fan-out, no storage.
    s.topology = Topology::kAggregation;
    s.num_streams = 1;
    s.threaded = true;
    s.fleet = 32;
    s.event_rate = 5000;
    s.window_base_ms = 500;
    s.window_mix = 4;
    s.selectivity = {0.2, 0.4, 0.6, 0.8};
    s.churn_every_ms = 375;  // 4 phases; each query lives 12 s
  } else if (name == "join_sharded" || name == "join_spill") {
    // Three key-sharded unthreaded engines behind per-shard pump threads:
    // shard ingress rings, ownership filter, join trigger and router
    // fan-out at about ten outputs per input. No runner threads.
    s.topology = Topology::kJoin;
    s.num_streams = 2;
    s.shards = 3;
    s.shard_threads = true;
    s.fleet = 48;
    s.event_rate = 2000;
    s.window_base_ms = 250;
    s.window_mix = 4;
    s.selectivity = {0.2, 0.3, 0.4, 0.5};
    // Light churn: a Cancel quiesces every shard's ingress ring, which
    // stalls the generator for a millisecond or more. 5 phases; each
    // query lives 50 s.
    s.churn_every_ms = 1050;
    if (name == "join_spill") {
      // The same deployment with each shard's state budget about three
      // times below its live window state (about 125 KiB): storage spill,
      // reload and compaction on every shard.
      s.memory_budget_bytes = 40 << 10;
    }
  } else {
    return false;
  }
  s.timed_ms = std::max<TimestampMs>(timed_tuples * 1000 / s.event_rate,
                                     s.churn_every_ms);
  *spec = std::move(s);
  return true;
}

JobConfig MakeJobConfig(const WorkloadSpec& spec, Deployment deployment,
                        Clock* clock, bool measure_overhead) {
  const bool measured = deployment == Deployment::kMeasured;
  JobConfig config;
  core::AStreamJob::Options& job = config.job;
  job.topology = spec.topology;
  job.num_streams = 2;  // read by multiway topologies only
  job.parallelism = 1;
  job.threaded = measured && spec.threaded;
  // Changelogs flush only on Pump(true): never by size or timeout.
  job.session.batch_size = 1 << 20;
  job.session.max_timeout_ms = TimestampMs{1} << 40;
  job.initial_mode = core::StoreMode::kGrouped;
  job.adaptive_mode = true;
  job.measure_overhead = measure_overhead;
  job.use_predicate_index = true;
  job.channel_capacity = 1024;
  job.use_spsc_rings = true;
  job.batch_size = spec.batch_size;
  job.batch_linger_ms = 50;
  job.max_join_stages = core::kMaxJoinDepth;
  job.clock = clock;
  job.enable_metrics = true;
  job.enable_trace = true;
  job.storage.memory_budget_bytes =
      measured && spec.memory_budget_bytes > 0 ? spec.memory_budget_bytes
                                               : -1;
  job.storage.allow_spill = true;
  // Each engine spills into its own fresh directory under TMPDIR: an
  // explicit spill_dir would be shared by every shard's engine.
  job.storage.spill_dir = "";
  job.storage.compress_spill = true;
  job.storage.compaction = true;
  job.storage.compaction_min_runs = 4;
  job.storage.access_aware_eviction = true;
  job.share_arrangements = true;
  job.slo = core::SloOptions{};
  job.meter_costs = false;
  config.shards = measured ? spec.shards : 1;
  config.slots = 64;
  config.shard_threads = measured && spec.shard_threads;
  config.ingress_capacity = 1024;
  config.supervised = false;
  return config;
}

std::string JobConfigJson(const JobConfig& config) {
  const core::AStreamJob::Options& j = config.job;
  std::ostringstream o;
  o << "{\"topology\": \"" << TopologyName(j.topology) << "\""
    << ", \"num_streams\": " << j.num_streams
    << ", \"parallelism\": " << j.parallelism
    << ", \"threaded\": " << (j.threaded ? "true" : "false")
    << ", \"session_batch_size\": " << j.session.batch_size
    << ", \"session_max_timeout_ms\": " << j.session.max_timeout_ms
    << ", \"initial_mode\": " << static_cast<int>(j.initial_mode)
    << ", \"adaptive_mode\": " << (j.adaptive_mode ? "true" : "false")
    << ", \"measure_overhead\": " << (j.measure_overhead ? "true" : "false")
    << ", \"use_predicate_index\": "
    << (j.use_predicate_index ? "true" : "false")
    << ", \"channel_capacity\": " << j.channel_capacity
    << ", \"use_spsc_rings\": " << (j.use_spsc_rings ? "true" : "false")
    << ", \"batch_size\": " << j.batch_size
    << ", \"batch_linger_ms\": " << j.batch_linger_ms
    << ", \"max_join_stages\": " << j.max_join_stages
    << ", \"enable_metrics\": " << (j.enable_metrics ? "true" : "false")
    << ", \"enable_trace\": " << (j.enable_trace ? "true" : "false")
    << ", \"memory_budget_bytes\": " << j.storage.memory_budget_bytes
    << ", \"allow_spill\": " << (j.storage.allow_spill ? "true" : "false")
    << ", \"compress_spill\": "
    << (j.storage.compress_spill ? "true" : "false")
    << ", \"compaction\": " << (j.storage.compaction ? "true" : "false")
    << ", \"compaction_min_runs\": " << j.storage.compaction_min_runs
    << ", \"access_aware_eviction\": "
    << (j.storage.access_aware_eviction ? "true" : "false")
    << ", \"share_arrangements\": "
    << (j.share_arrangements ? "true" : "false")
    << ", \"admission\": " << (j.slo.enable_admission ? "true" : "false")
    << ", \"meter_costs\": " << (j.meter_costs ? "true" : "false")
    << ", \"shards\": " << config.shards << ", \"slots\": " << config.slots
    << ", \"shard_threads\": " << (config.shard_threads ? "true" : "false")
    << ", \"ingress_capacity\": " << config.ingress_capacity
    << ", \"supervised\": " << (config.supervised ? "true" : "false")
    << "}";
  return o.str();
}

Script::Script(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec),
      queries_(
          [&spec] {
            workload::QueryGenerator::Config c;
            c.num_fields = 5;
            c.fields_max = 1000;
            return c;
          }(),
          Mix(seed, 1000)) {
  workload::DataGenerator::Config dc;
  dc.key_max = spec.key_max;
  dc.fields_max = 1000;
  dc.num_fields = 5;
  for (int s = 0; s < spec.num_streams; ++s) {
    data_.emplace_back(dc, Mix(seed, static_cast<uint64_t>(s)));
  }
  timed_start_ = 1 + spec.WarmupMs();
  end_ = timed_start_ + spec.timed_ms;
  next_churn_ = timed_start_ + spec.churn_every_ms;
  for (int slot = 0; slot < spec.fleet; ++slot) {
    // Churn point k stamps marker timed_start_ + k * churn_every_ms and
    // timed_start_ - 1 is a multiple of the slide, so churn point s + 1
    // gives slot s this phase.
    const TimestampMs phase =
        (slot + 1) * spec.churn_every_ms % spec.window_base_ms;
    deploys_[1 + phase].push_back(slot);
  }
  due_in_ms_ = spec.event_rate / 1000;
}

core::Predicate Script::PinnedPredicate(double selectivity) {
  core::Predicate p = queries_.RandomPredicate();  // seeded column + op
  const spe::Value n = 1000;
  const spe::Value k = std::clamp<spe::Value>(
      static_cast<spe::Value>(std::lround(selectivity * n)), 1, n);
  switch (p.op) {
    case core::CmpOp::kLt:
      p.constant = k;
      break;
    case core::CmpOp::kLe:
      p.constant = k - 1;
      break;
    case core::CmpOp::kGt:
      p.constant = n - 1 - k;
      break;
    case core::CmpOp::kGe:
      p.constant = n - k;
      break;
    case core::CmpOp::kEq:  // one value in n cannot carry a selectivity
      p.op = core::CmpOp::kLt;
      p.constant = k;
      break;
  }
  return p;
}

core::QueryDescriptor Script::QueryForSlot(int slot) {
  const TimestampMs base = spec_.window_base_ms;
  const spe::WindowSpec window =
      spe::WindowSpec::Sliding(base * (1 + slot % spec_.window_mix), base);
  const double sel =
      spec_.selectivity[static_cast<size_t>(slot) % spec_.selectivity.size()];
  core::QueryBuilder b = core::QueryBuilder::Selection();
  switch (spec_.topology) {
    case Topology::kAggregation: {
      b = core::QueryBuilder::Aggregation();
      const core::Predicate p = PinnedPredicate(sel);
      b.WhereA(p.column, p.op, p.constant).Window(window).Agg(
          spe::AggKind::kSum, 1);
      break;
    }
    case Topology::kJoin: {
      b = core::QueryBuilder::Join();
      const core::Predicate pa = PinnedPredicate(sel);
      const core::Predicate pb = PinnedPredicate(sel);
      b.WhereA(pa.column, pa.op, pa.constant)
          .WhereB(pb.column, pb.op, pb.constant)
          .Window(window);
      break;
    }
    case Topology::kMultiway:
    case Topology::kComplex:
      break;
  }
  auto desc = b.Build();
  return desc.ok() ? *desc : core::QueryDescriptor{};
}

bool Script::Next(Op* op) {
  *op = Op{};
  while (!done_) {
    if (pushed_in_ms_ == 0) {
      if (now_ == timed_start_ && !timed_start_emitted_) {
        timed_start_emitted_ = true;
        op->kind = Op::Kind::kTimedStart;
        op->time = now_;
        return true;
      }
      auto deploy = deploys_.find(now_);
      if (deploy != deploys_.end()) {
        op->kind = Op::Kind::kDeploy;
        op->time = now_ - 1;
        op->slots = std::move(deploy->second);
        for (int slot : op->slots) op->submits.push_back(QueryForSlot(slot));
        deploys_.erase(deploy);
        return true;
      }
      if (now_ == next_churn_ && now_ < end_) {
        // Oldest first: churn point k replaces slot k mod fleet.
        next_churn_ += spec_.churn_every_ms;
        const int slot = churned_++ % spec_.fleet;
        op->kind = Op::Kind::kChurn;
        op->time = now_ - 1;
        op->slots.push_back(slot);
        op->submits.push_back(QueryForSlot(slot));
        return true;
      }
    }
    if (pushed_in_ms_ < due_in_ms_) {
      ++pushed_in_ms_;
      op->kind = Op::Kind::kPush;
      op->time = now_;
      op->stream = next_stream_;
      op->row = data_[static_cast<size_t>(next_stream_)].Next();
      next_stream_ = (next_stream_ + 1) % spec_.num_streams;
      return true;
    }
    // Millisecond `now_` is complete.
    const TimestampMs done = now_;
    ++now_;
    pushed_in_ms_ = 0;
    due_in_ms_ = now_ * spec_.event_rate / 1000 -
                 (now_ - 1) * spec_.event_rate / 1000;
    if (now_ >= end_) done_ = true;
    if ((done + 1) % spec_.watermark_every_ms == 0 || done_) {
      op->kind = Op::Kind::kWatermark;
      op->time = done + 1;
      return true;
    }
  }
  return false;
}

}  // namespace astream::perfbench
