#include "perfbench/pass.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

namespace astream::perfbench {
namespace {

enum SpanName {
  kPass,
  kSetup,
  kTimed,
  kCreate,
  kStart,
  kPush,
  kPushWatermark,
  kSubmit,
  kCancel,
  kPump,
  kWaitForDeployment,
  kFinishAndWait,
  kCallback,
  kSample,
};

/// Event time between two engine counter samples of a traced pass.
constexpr TimestampMs kSampleEveryMs = 250;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Threads of this process, from /proc/self/status.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

/// Spans of the control thread: a stack of open spans, closed in order.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  void Begin(int name) {
    if (!on_) return;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = NowNs();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    if (name == kSetup || name == kTimed) {
      phase_.store(stack_.back(), std::memory_order_relaxed);
    }
  }
  void End() {
    if (!on_) return;
    Span& s = spans_[static_cast<size_t>(stack_.back())];
    s.end_ns = NowNs();
    s.busy_ns = s.end_ns - s.start_ns;
    stack_.pop_back();
  }

  bool on() const { return on_; }
  /// Innermost open span (control thread only).
  int Top() const { return stack_.empty() ? -1 : stack_.back(); }
  /// The open phase span, readable from any thread.
  int Phase() const { return phase_.load(std::memory_order_relaxed); }
  std::vector<Span>& spans() { return spans_; }

 private:
  const bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::atomic<int> phase_{-1};
};

class Scope {
 public:
  Scope(Tracer* tracer, int name) : tracer_(tracer) { tracer_->Begin(name); }
  ~Scope() { tracer_->End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

/// The result callback. Shard pump threads and runner sink threads call
/// it concurrently, so every thread folds into its own slot; the control
/// thread owns slot 0.
class Sink {
 public:
  Sink(Tracer* tracer, PassObserver* observer)
      : tracer_(tracer), observer_(observer) {
    Local();  // the control thread registers first: slot 0
  }

  /// Open loop: results of the timed part whose window closed on a
  /// scripted watermark get a latency against the wall schedule.
  void EnableLatency(TimestampMs from, TimestampMs to, double ns_per_ms) {
    latency_from_ = from;
    latency_to_ = to;
    ns_per_ms_ = ns_per_ms;
  }
  int SegmentOf(TimestampMs event_time) const {
    return static_cast<int>((event_time - latency_from_) *
                            PassResult::kLatencySegments /
                            (latency_to_ - latency_from_));
  }
  /// Event time `origin` is due at wall time `t0_ns`.
  void StartSchedule(int64_t t0_ns, TimestampMs origin) {
    origin_ = origin;
    t0_ns_.store(t0_ns, std::memory_order_release);
  }

  void OnResult(core::QueryId id, const spe::Record& record) {
    const int64_t begin = tracer_->on() ? NowNs() : 0;
    Slot* slot = Local();
    slot->hash += RecordHash(id, record);
    ++slot->count;
    const int64_t t0 = t0_ns_.load(std::memory_order_acquire);
    if (t0 > 0 && record.event_time >= latency_from_ &&
        record.event_time < latency_to_) {
      const double sched =
          static_cast<double>(t0) +
          static_cast<double>(record.event_time - origin_) * ns_per_ms_;
      slot->latency_ns[static_cast<size_t>(SegmentOf(record.event_time))]
          .push_back(static_cast<float>(static_cast<double>(NowNs()) - sched));
    }
    if (observer_ != nullptr) observer_->OnResult(id, record);
    if (tracer_->on()) {
      const int64_t end = NowNs();
      const int parent =
          slot->thread == 0 ? tracer_->Top() : tracer_->Phase();
      slot->sink_ns.push_back(static_cast<float>(end - begin));
      Span* open = slot->spans.empty() ? nullptr : &slot->spans.back();
      if (open == nullptr || open->parent != parent ||
          begin - open->start_ns > 1'000'000) {
        Span s;
        s.name = kCallback;
        s.thread = slot->thread;
        s.parent = parent;
        s.start_ns = begin;
        s.count = 0;
        slot->spans.push_back(s);
        open = &slot->spans.back();
      }
      open->end_ns = end;
      ++open->count;
      open->busy_ns += end - begin;
    }
  }

  /// Folds every slot into `result` (after the engine has stopped).
  void Collect(PassResult* result) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& slot : slots_) {
      result->hash += slot->hash;
      result->outputs += slot->count;
      for (size_t i = 0; i < slot->latency_ns.size(); ++i) {
        result->result_latency_ns[i].insert(
            result->result_latency_ns[i].end(), slot->latency_ns[i].begin(),
            slot->latency_ns[i].end());
      }
      result->spans.insert(result->spans.end(), slot->spans.begin(),
                           slot->spans.end());
      result->sink_ns.insert(result->sink_ns.end(), slot->sink_ns.begin(),
                             slot->sink_ns.end());
    }
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    int64_t count = 0;
    int thread = 0;
    std::array<std::vector<float>, PassResult::kLatencySegments> latency_ns;
    std::vector<Span> spans;
    std::vector<float> sink_ns;
  };

  Slot* Local() {
    thread_local uint64_t owner = 0;
    thread_local Slot* slot = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::make_unique<Slot>());
      slot = slots_.back().get();
      slot->thread = static_cast<int>(slots_.size()) - 1;
      owner = id_;
    }
    return slot;
  }

  static std::atomic<uint64_t> next_id_;
  const uint64_t id_ = next_id_.fetch_add(1) + 1;
  Tracer* tracer_;
  PassObserver* observer_;
  TimestampMs origin_ = 0;
  TimestampMs latency_from_ = 0;
  TimestampMs latency_to_ = 0;
  double ns_per_ms_ = 0;
  std::atomic<int64_t> t0_ns_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

std::atomic<uint64_t> Sink::next_id_{0};

bool Sampled(const std::string& name) {
  for (const char* prefix :
       {"stage.", "edge.", "state.", "storage.", "session.", "runner."}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// One engine sample: per shard, the sampled gauges plus its push
/// counters and ingress ring position.
std::string SampleJson(Client* client, TimestampMs event_time,
                       int64_t watermarks_pushed) {
  std::ostringstream o;
  o << "{\"t\": " << event_time << ", \"wall_ns\": " << NowNs()
    << ", \"threads\": " << ProcessThreads() << ", \"shards\": [";
  for (int i = 0; i < client->num_shards(); ++i) {
    shard::ShardRuntime* shard = client->router()->shard(i);
    const obs::MetricsRegistry::Snapshot snap = shard->MetricsSnapshot();
    int64_t applied = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind("job.push_", 0) == 0) applied += value;
    }
    // Watermarks count as applied: a lower bound on the ring backlog.
    const int64_t backlog = std::max<int64_t>(
        0, shard->enqueued() - applied - watermarks_pushed);
    o << (i == 0 ? "" : ", ") << "{\"pushes_applied\": " << applied
      << ", \"ingress_backlog\": " << backlog;
    for (const auto& [name, value] : snap.gauges) {
      if (Sampled(name)) o << ", \"" << name << "\": " << value;
    }
    o << "}";
  }
  o << "]}";
  return o.str();
}

/// The engine's final view: operator stats summed over the shards (the
/// router's merged CollectStats drops the memo, factor, storage and
/// multiway fields), the merged snapshot's sizes, gauges and histograms,
/// and each shard's selection input.
std::string FinalJson(Client* client) {
  core::AStreamJob::OperatorStats s;
  std::vector<int64_t> shard_records_in;
  for (int i = 0; i < client->num_shards(); ++i) {
    shard::ShardRuntime* shard = client->router()->shard(i);
    const core::AStreamJob::OperatorStats t = shard->CollectStats();
    s.queryset_nanos += t.queryset_nanos;
    s.fanout_nanos += t.fanout_nanos;
    s.bitset_ops += t.bitset_ops;
    s.join_pairs_computed += t.join_pairs_computed;
    s.join_pairs_reused += t.join_pairs_reused;
    s.router_records_out += t.router_records_out;
    s.router_rows_shared += t.router_rows_shared;
    s.router_rows_copied += t.router_rows_copied;
    s.reload_saves += t.reload_saves;
    s.arrange_memo_hits += t.arrange_memo_hits;
    s.arrange_memo_misses += t.arrange_memo_misses;
    s.factor_rewrites += t.factor_rewrites;
    s.factor_reuses += t.factor_reuses;
    s.factor_fallbacks += t.factor_fallbacks;
    s.mjoin_chains_computed += t.mjoin_chains_computed;
    s.mjoin_chains_reused += t.mjoin_chains_reused;
    s.subjoins_built += t.subjoins_built;
    s.subjoins_attached += t.subjoins_attached;
    // CollectStats counts only the first selection stage; the stage
    // gauges cover every input stream.
    int64_t records_in = 0;
    for (const auto& [name, value] : shard->MetricsSnapshot().gauges) {
      if (name.rfind("stage.shared-selection", 0) == 0 &&
          name.size() > 11 &&
          name.compare(name.size() - 11, 11, ".records_in") == 0) {
        records_in += value;
      }
    }
    shard_records_in.push_back(records_in);
  }
  const obs::MetricsRegistry::Snapshot snap = client->MetricsSnapshot();
  std::ostringstream o;
  o << "{\"stats\": {\"queryset_nanos\": " << s.queryset_nanos
    << ", \"fanout_nanos\": " << s.fanout_nanos
    << ", \"bitset_ops\": " << s.bitset_ops
    << ", \"join_pairs_computed\": " << s.join_pairs_computed
    << ", \"join_pairs_reused\": " << s.join_pairs_reused
    << ", \"router_records_out\": " << s.router_records_out
    << ", \"router_rows_shared\": " << s.router_rows_shared
    << ", \"router_rows_copied\": " << s.router_rows_copied
    << ", \"reload_saves\": " << s.reload_saves
    << ", \"arrange_memo_hits\": " << s.arrange_memo_hits
    << ", \"arrange_memo_misses\": " << s.arrange_memo_misses
    << ", \"factor_rewrites\": " << s.factor_rewrites
    << ", \"factor_reuses\": " << s.factor_reuses
    << ", \"factor_fallbacks\": " << s.factor_fallbacks
    << ", \"mjoin_chains_computed\": " << s.mjoin_chains_computed
    << ", \"mjoin_chains_reused\": " << s.mjoin_chains_reused
    << ", \"subjoins_built\": " << s.subjoins_built
    << ", \"subjoins_attached\": " << s.subjoins_attached
    << "}, \"num_gauges\": " << snap.gauges.size()
    << ", \"num_query_series\": " << snap.queries.size()
    << ", \"gauges\": {";
  bool first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!Sampled(name)) continue;
    o << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  o << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("query.", 0) == 0) continue;
    o << (first ? "" : ", ") << "\"" << name << "\": {\"count\": " << h.count
      << ", \"sum\": " << h.sum << ", \"p50\": " << h.Percentile(50) << "}";
    first = false;
  }
  o << "}, \"shard_records_in\": [";
  for (size_t i = 0; i < shard_records_in.size(); ++i) {
    o << (i == 0 ? "" : ", ") << shard_records_in[i];
  }
  o << "]}";
  return o.str();
}

}  // namespace

const std::vector<std::string>& SpanNames() {
  static const std::vector<std::string> names = {
      "pass",   "setup",  "timed",          "Create",
      "Start",  "Push",   "PushWatermark",  "Submit",
      "Cancel", "Pump",   "WaitForDeployment", "FinishAndWait",
      "callback", "sample"};
  return names;
}

uint64_t RecordHash(core::QueryId id, const spe::Record& record) {
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdULL;
    return h ^ (h >> 33);
  };
  uint64_t h = mix(0xcbf29ce484222325ULL, static_cast<uint64_t>(id));
  h = mix(h, static_cast<uint64_t>(record.event_time));
  for (size_t c = 0; c < record.row.NumColumns(); ++c) {
    h = mix(h, static_cast<uint64_t>(record.row.At(c)));
  }
  return h;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

PassResult RunPass(const PassOptions& options) {
  PassResult result;
  const WorkloadSpec& spec = options.spec;
  const bool reference = options.deployment == Deployment::kReference;
  ManualClock clock(0);
  const JobConfig config =
      MakeJobConfig(spec, options.deployment, &clock, options.trace);
  result.config_json = JobConfigJson(config);
  result.threads_expected = reference ? 1 : spec.Threads();

  Script script(spec, options.seed);
  Tracer tracer(options.trace);
  // Declared before the client: the client's threads call into it until
  // the client is destroyed.
  Sink sink(&tracer, options.observer);
  const double ns_per_ms =
      options.open_loop ? 1e6 * static_cast<double>(spec.event_rate) /
                              options.offered_rate
                        : 0;
  if (options.open_loop) {
    sink.EnableLatency(script.timed_start_ms(), script.end_ms(), ns_per_ms);
  }

  const int64_t setup_begin = NowNs();
  tracer.Begin(kPass);
  tracer.Begin(kSetup);
  std::unique_ptr<Client> client;
  {
    Scope span(&tracer, kCreate);
    auto created = Client::Create(config);
    if (!created.ok()) {
      result.error = "Create: " + created.status().ToString();
      return result;
    }
    client = std::move(created).value();
  }
  client->SetResultCallback(
      [&sink](core::QueryId id, const spe::Record& record) {
        sink.OnResult(id, record);
      });
  {
    Scope span(&tracer, kStart);
    const Status started = client->Start();
    if (!started.ok()) {
      result.error = "Start: " + started.ToString();
      return result;
    }
  }

  auto marker_time = [&client] {
    return client->router()->shard(0)->job()->session().last_marker_time();
  };
  std::vector<core::QueryId> slot_ids(static_cast<size_t>(spec.fleet), -1);
  auto submit = [&](int slot, const core::QueryDescriptor& desc) {
    Scope span(&tracer, kSubmit);
    ++result.attempted;
    auto id = client->Submit(desc);
    if (!id.ok()) ++result.failed;
    slot_ids[static_cast<size_t>(slot)] = id.ok() ? *id : -1;
  };
  auto pump_and_wait = [&] {
    {
      Scope span(&tracer, kPump);
      client->Pump(true);
    }
    Scope span(&tracer, kWaitForDeployment);
    ++result.attempted;
    if (!client->WaitForDeployment(10'000)) ++result.failed;
  };
  auto created_queries = [&](const Op& op) {
    std::vector<std::pair<core::QueryId, core::QueryDescriptor>> out;
    for (size_t i = 0; i < op.slots.size(); ++i) {
      out.emplace_back(slot_ids[static_cast<size_t>(op.slots[i])],
                       op.submits[i]);
    }
    return out;
  };

  bool timed = false;
  int64_t t0 = 0;               // wall time the timed part starts
  int64_t schedule_t0 = 0;      // open loop: wall time of `origin`
  TimestampMs origin = 0;
  int64_t watermarks = 0;
  TimestampMs next_sample = 0;
  Op op;
  while (script.Next(&op)) {
    if (op.kind == Op::Kind::kTimedStart) {
      result.setup_s = static_cast<double>(NowNs() - setup_begin) * 1e-9;
      if (options.setup_only) {
        result.ok = client->Stop().ok();
        return result;
      }
      tracer.End();  // setup
      tracer.Begin(kTimed);
      timed = true;
      t0 = NowNs();
      continue;
    }
    if (options.open_loop) {
      // The warm-up prefix is paced too, so that the timed part starts
      // from a steady pipeline rather than from queues a burst filled.
      if (schedule_t0 == 0) {
        schedule_t0 = NowNs();
        origin = op.time;
        sink.StartSchedule(schedule_t0, origin);
      }
      const auto due =
          schedule_t0 + static_cast<int64_t>(
                            static_cast<double>(op.time - origin) * ns_per_ms);
      // Sleep instead of spinning: the generator must not take a core
      // from the engine. Oversleeping makes the next ops late, which their
      // results' latency counts.
      int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNs();
      }
      if (timed && op.kind == Op::Kind::kPush) {
        result.gen_lag_ns.push_back(static_cast<float>(now - due));
      }
    }
    if (options.trace && op.time >= next_sample) {
      Scope span(&tracer, kSample);
      result.samples.push_back(SampleJson(client.get(), op.time, watermarks));
      next_sample = op.time + kSampleEveryMs;
    }
    clock.SetMs(op.time);
    switch (op.kind) {
      case Op::Kind::kPush: {
        if (options.observer != nullptr) {
          options.observer->OnPush(op.stream,
                                   std::max(op.time, marker_time()), op.row);
        }
        core::PushResult pushed;
        {
          Scope span(&tracer, kPush);
          pushed = client->Push(static_cast<StreamId>(op.stream), op.time,
                                std::move(op.row));
        }
        ++result.attempted;
        if (pushed == core::PushResult::kBackpressure ||
            pushed == core::PushResult::kShutdown) {
          ++result.failed;
        }
        if (timed) ++result.timed_tuples;
        break;
      }
      case Op::Kind::kWatermark: {
        Scope span(&tracer, kPushWatermark);
        client->PushWatermark(op.time);
        ++watermarks;
        break;
      }
      case Op::Kind::kDeploy: {
        for (size_t i = 0; i < op.slots.size(); ++i) {
          submit(op.slots[i], op.submits[i]);
        }
        pump_and_wait();
        if (options.observer != nullptr) {
          options.observer->OnChangelog(created_queries(op), {},
                                        marker_time());
        }
        break;
      }
      case Op::Kind::kChurn: {
        const core::QueryId victim =
            slot_ids[static_cast<size_t>(op.slots[0])];
        {
          Scope span(&tracer, kCancel);
          ++result.attempted;
          if (!client->Cancel(victim).ok()) ++result.failed;
        }
        const int64_t begin = NowNs();
        submit(op.slots[0], op.submits[0]);
        pump_and_wait();
        result.deploy_latency_ns.push_back(NowNs() - begin);
        if (result.deploy_latency_ns.size() == 1) {
          // Every thread of the deployment is running by now.
          result.threads_observed = ProcessThreads();
        }
        if (options.observer != nullptr) {
          options.observer->OnChangelog(created_queries(op), {victim},
                                        marker_time());
        }
        break;
      }
      case Op::Kind::kTimedStart:
        break;
    }
  }
  Status finished;
  {
    Scope span(&tracer, kFinishAndWait);
    finished = client->FinishAndWait();
  }
  result.timed_s = static_cast<double>(NowNs() - t0) * 1e-9;
  tracer.End();  // timed
  tracer.End();  // pass
  if (!finished.ok()) {
    result.error = "FinishAndWait: " + finished.ToString();
    return result;
  }
  if (config.shard_threads) {
    // Threaded shards acknowledge pushes before applying them; a push the
    // engine refused shows only in the shard's counters.
    for (int i = 0; i < client->num_shards(); ++i) {
      const auto snap = client->router()->shard(i)->MetricsSnapshot();
      for (const char* name : {"job.push_backpressure", "job.push_shutdown"}) {
        const auto it = snap.counters.find(name);
        if (it != snap.counters.end()) result.failed += it->second;
      }
    }
  }
  if (options.trace) {
    result.samples.push_back(
        SampleJson(client.get(), script.end_ms(), watermarks));
    result.final_stats = FinalJson(client.get());
  }
  client.reset();
  result.spans = std::move(tracer.spans());
  sink.Collect(&result);
  result.ok = true;
  return result;
}

}  // namespace astream::perfbench
