#include "spe/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "spe/operators.h"

namespace astream::spe {
namespace {

/// Collects everything a sink stage emits, thread-safely.
struct SinkCollector {
  std::mutex mutex;
  std::vector<Record> records;
  std::vector<TimestampMs> watermarks;
  std::vector<ControlMarker> markers;
  int done_count = 0;

  SinkFn AsFn() {
    return [this](int stage, int instance, const StreamElement& el) {
      (void)stage;
      (void)instance;
      std::lock_guard<std::mutex> lock(mutex);
      switch (el.kind) {
        case ElementKind::kRecord:
          records.push_back(el.record);
          break;
        case ElementKind::kWatermark:
          watermarks.push_back(el.watermark);
          break;
        case ElementKind::kMarker:
          markers.push_back(el.marker);
          break;
        case ElementKind::kDone:
          ++done_count;
          break;
      }
    };
  }
};

/// Records the changelog/marker + element sequence it observes (for
/// alignment tests).
class TraceOperator : public Operator {
 public:
  void ProcessRecord(int port, Record record, Collector* out) override {
    trace.push_back("r" + std::to_string(port) + ":" +
                    std::to_string(record.event_time));
    out->Emit(StreamElement::MakeRecord(record.event_time,
                                        std::move(record.row)));
  }
  void OnWatermark(TimestampMs wm, Collector* out) override {
    (void)out;
    if (wm != kMaxTimestamp) trace.push_back("w:" + std::to_string(wm));
  }
  void OnMarker(const ControlMarker& m, Collector* out) override {
    (void)out;
    trace.push_back("m:" + std::to_string(m.epoch));
  }

  std::vector<std::string> trace;
};

TopologySpec SimpleFilterSpec(int parallelism) {
  TopologySpec spec;
  StageSpec filter;
  filter.name = "filter";
  filter.parallelism = parallelism;
  filter.is_sink = true;
  filter.factory = [](int) {
    return std::make_unique<FilterOperator>(
        [](const Row& row) { return row.At(1) % 2 == 0; });
  };
  const int s = spec.AddStage(std::move(filter));
  spec.AddExternalInput({"in", s, 0, Partitioning::kHash});
  return spec;
}

TEST(SyncRunnerTest, FilterPipeline) {
  SinkCollector sink;
  SyncRunner runner(SimpleFilterSpec(1), sink.AsFn());
  ASSERT_TRUE(runner.Start().ok());
  for (int i = 0; i < 10; ++i) {
    runner.Push(0, StreamElement::MakeRecord(i, Row{i, i}));
  }
  runner.FinishAndWait();
  EXPECT_EQ(sink.records.size(), 5u);
  for (const Record& r : sink.records) {
    EXPECT_EQ(r.row.At(1) % 2, 0);
  }
  EXPECT_EQ(runner.StageRecordsIn(0), 10);
  EXPECT_EQ(runner.StageRecordsOut(0), 5);
  EXPECT_EQ(sink.done_count, 1);
}

TEST(SyncRunnerTest, HashPartitioningCoversAllInstances) {
  SinkCollector sink;
  SyncRunner runner(SimpleFilterSpec(4), sink.AsFn());
  ASSERT_TRUE(runner.Start().ok());
  for (int i = 0; i < 100; ++i) {
    runner.Push(0, StreamElement::MakeRecord(i, Row{i, 0}));
  }
  runner.FinishAndWait();
  EXPECT_EQ(sink.records.size(), 100u);
  EXPECT_EQ(sink.done_count, 4);
}

TEST(SyncRunnerTest, ValidateRejectsUnfedPort) {
  TopologySpec spec;
  StageSpec s;
  s.name = "orphan";
  s.factory = [](int) { return std::make_unique<PassThroughOperator>(); };
  spec.AddStage(std::move(s));
  SinkCollector sink;
  SyncRunner runner(std::move(spec), sink.AsFn());
  EXPECT_FALSE(runner.Start().ok());
}

/// Two-stage topology where the second stage has two input ports fed by
/// two upstream stages; checks watermark minimization and marker
/// alignment.
TEST(SyncRunnerTest, WatermarkIsMinAcrossPorts) {
  TopologySpec spec;
  StageSpec a;
  a.name = "a";
  a.factory = [](int) { return std::make_unique<PassThroughOperator>(); };
  const int sa = spec.AddStage(std::move(a));
  StageSpec b;
  b.name = "b";
  b.factory = [](int) { return std::make_unique<PassThroughOperator>(); };
  const int sb = spec.AddStage(std::move(b));

  TraceOperator* trace_op = nullptr;
  StageSpec join;
  join.name = "join";
  join.num_ports = 2;
  join.is_sink = true;
  join.factory = [&trace_op](int) {
    auto op = std::make_unique<TraceOperator>();
    trace_op = op.get();
    return op;
  };
  join.inputs = {{sa, 0, Partitioning::kHash},
                 {sb, 1, Partitioning::kHash}};
  spec.AddStage(std::move(join));
  spec.AddExternalInput({"a", sa, 0, Partitioning::kHash});
  spec.AddExternalInput({"b", sb, 0, Partitioning::kHash});

  SinkCollector sink;
  SyncRunner runner(std::move(spec), sink.AsFn());
  ASSERT_TRUE(runner.Start().ok());

  runner.Push(0, StreamElement::MakeWatermark(10));
  // Combined watermark still at min (port 1 has none) — no w in trace.
  EXPECT_TRUE(trace_op->trace.empty());
  runner.Push(1, StreamElement::MakeWatermark(5));
  ASSERT_EQ(trace_op->trace.size(), 1u);
  EXPECT_EQ(trace_op->trace[0], "w:5");
  runner.Push(1, StreamElement::MakeWatermark(20));
  EXPECT_EQ(trace_op->trace.back(), "w:10");
  runner.FinishAndWait();
}

TEST(SyncRunnerTest, MarkerAlignmentBlocksEarlySender) {
  TopologySpec spec;
  TraceOperator* trace_op = nullptr;
  StageSpec join;
  join.name = "join";
  join.num_ports = 2;
  join.is_sink = true;
  join.factory = [&trace_op](int) {
    auto op = std::make_unique<TraceOperator>();
    trace_op = op.get();
    return op;
  };
  const int sj = spec.AddStage(std::move(join));
  spec.AddExternalInput({"a", sj, 0, Partitioning::kHash});
  spec.AddExternalInput({"b", sj, 1, Partitioning::kHash});

  SinkCollector sink;
  SyncRunner runner(std::move(spec), sink.AsFn());
  ASSERT_TRUE(runner.Start().ok());

  ControlMarker marker;
  marker.kind = MarkerKind::kChangelog;
  marker.epoch = 1;
  marker.time = 100;

  runner.Push(0, StreamElement::MakeRecord(50, Row{1}));
  // Marker arrives on port 0 only; port 0's input is now blocked.
  runner.Push(0, StreamElement::MakeMarker(marker));
  // Elements from port 0 after its marker must be buffered...
  runner.Push(0, StreamElement::MakeRecord(120, Row{2}));
  // ...while port 1 keeps flowing.
  runner.Push(1, StreamElement::MakeRecord(60, Row{3}));
  ASSERT_EQ(trace_op->trace.size(), 2u);
  EXPECT_EQ(trace_op->trace[0], "r0:50");
  EXPECT_EQ(trace_op->trace[1], "r1:60");
  // Port 1 delivers the marker: alignment completes, the marker fires
  // exactly once, then the buffered record drains.
  runner.Push(1, StreamElement::MakeMarker(marker));
  ASSERT_EQ(trace_op->trace.size(), 4u);
  EXPECT_EQ(trace_op->trace[2], "m:1");
  EXPECT_EQ(trace_op->trace[3], "r0:120");
  runner.FinishAndWait();
  // The sink saw the marker exactly once (forwarded post-alignment).
  EXPECT_EQ(sink.markers.size(), 1u);
}

/// Emits `fan` records (numbered in one global sequence) per input record
/// and on every watermark, marker and close, and logs the order in which
/// a downstream operator must observe them: records, then the control
/// element the runtime forwards after them.
class BurstOperator : public Operator {
 public:
  BurstOperator(int fan, std::vector<std::string>* expected)
      : fan_(fan), expected_(expected) {}
  void ProcessRecord(int port, Record record, Collector* out) override {
    (void)port;
    Burst(record.event_time, out);
  }
  void OnWatermark(TimestampMs wm, Collector* out) override {
    Burst(wm == kMaxTimestamp ? 0 : wm, out);
    expected_->push_back("w");
  }
  void OnMarker(const ControlMarker& m, Collector* out) override {
    Burst(m.time, out);
    expected_->push_back("m:" + std::to_string(m.epoch));
  }
  void Close(Collector* out) override {
    Burst(0, out);
    expected_->push_back("close");
  }

 private:
  void Burst(TimestampMs t, Collector* out) {
    for (int i = 0; i < fan_; ++i) {
      expected_->push_back("r" + std::to_string(next_));
      out->Emit(StreamElement::MakeRecord(t, Row{next_++}));
    }
  }
  const int fan_;
  std::vector<std::string>* expected_;
  int64_t next_ = 0;
};

/// Logs what it observes (records, watermarks, markers, close) and the
/// size of every ProcessBatch call.
class ProbeOperator : public Operator {
 public:
  void ProcessRecord(int port, Record record, Collector* out) override {
    (void)port;
    (void)out;
    seen.push_back("r" + std::to_string(record.row.At(0)));
  }
  void ProcessBatch(int port, RecordBatch& records, Collector* out) override {
    batch_sizes.push_back(records.size());
    for (Record& r : records) ProcessRecord(port, std::move(r), out);
  }
  void OnWatermark(TimestampMs wm, Collector* out) override {
    (void)wm;
    (void)out;
    seen.push_back("w");
  }
  void OnMarker(const ControlMarker& m, Collector* out) override {
    (void)out;
    seen.push_back("m:" + std::to_string(m.epoch));
  }
  void Close(Collector* out) override {
    (void)out;
    seen.push_back("close");
  }

  std::vector<std::string> seen;
  std::vector<size_t> batch_sizes;
};

// SyncRunner edges carry batches of at most `batch_size` records, in emit
// order, and every record reaches the downstream operator before any
// watermark, marker or done its upstream forwards after emitting it.
class SyncBatchedEdgesTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SyncBatchedEdgesTest, CapsBatchesAndKeepsEmitAndControlOrder) {
  const size_t k = GetParam();
  std::vector<std::string> expected;
  ProbeOperator* probe = nullptr;
  TopologySpec spec;
  StageSpec burst;
  burst.name = "burst";
  burst.factory = [&expected](int) {
    return std::make_unique<BurstOperator>(/*fan=*/10, &expected);
  };
  const int sb = spec.AddStage(std::move(burst));
  StageSpec sink;
  sink.name = "probe";
  sink.is_sink = true;
  sink.factory = [&probe](int) {
    auto op = std::make_unique<ProbeOperator>();
    probe = op.get();
    return op;
  };
  sink.inputs = {{sb, 0, Partitioning::kHash}};
  spec.AddStage(std::move(sink));
  spec.AddExternalInput({"in", sb, 0, Partitioning::kHash});

  SyncRunner runner(std::move(spec), nullptr, nullptr, k);
  ASSERT_TRUE(runner.Start().ok());
  for (int i = 0; i < 3; ++i) {
    runner.Push(0, StreamElement::MakeRecord(i, Row{i}));
  }
  ElementBatch batch;
  for (int i = 3; i < 8; ++i) {
    batch.Add(StreamElement::MakeRecord(i, Row{i}));
  }
  runner.Push(0, std::move(batch));
  runner.Push(0, StreamElement::MakeWatermark(10));
  ControlMarker marker;
  marker.kind = MarkerKind::kChangelog;
  marker.epoch = 1;
  marker.time = 11;
  runner.InjectMarker(marker);
  runner.Push(0, StreamElement::MakeRecord(12, Row{12}));
  runner.FinishAndWait();

  EXPECT_EQ(probe->seen, expected);
  ASSERT_FALSE(probe->batch_sizes.empty());
  size_t largest = 0;
  for (size_t n : probe->batch_sizes) {
    EXPECT_LE(n, k);
    largest = std::max(largest, n);
  }
  // The five-record input batch fans out to 50 records in one delivery:
  // full batches form, and a partial one ships when the delivery returns.
  EXPECT_EQ(largest, std::min<size_t>(k, 50));
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, SyncBatchedEdgesTest,
                         ::testing::Values(size_t{1}, size_t{4},
                                           size_t{64}));

TEST(ThreadedRunnerTest, FilterPipelineParallel) {
  SinkCollector sink;
  ThreadedRunner runner(SimpleFilterSpec(3), sink.AsFn(), nullptr, 64);
  ASSERT_TRUE(runner.Start().ok());
  for (int i = 0; i < 1000; ++i) {
    runner.Push(0, StreamElement::MakeRecord(i, Row{i, i}));
  }
  runner.FinishAndWait();
  EXPECT_EQ(sink.records.size(), 500u);
  EXPECT_EQ(sink.done_count, 3);
}

TEST(ThreadedRunnerTest, CancelStopsQuickly) {
  SinkCollector sink;
  ThreadedRunner runner(SimpleFilterSpec(2), sink.AsFn(), nullptr, 16);
  ASSERT_TRUE(runner.Start().ok());
  for (int i = 0; i < 100; ++i) {
    runner.Push(0, StreamElement::MakeRecord(i, Row{i, i}));
  }
  runner.Cancel();
  // No crash, push after cancel is rejected.
  EXPECT_FALSE(runner.Push(0, StreamElement::MakeRecord(0, Row{0, 0})));
}

TEST(ThreadedRunnerTest, MarkerAlignedAcrossParallelInstances) {
  // filter(par 2) -> trace(par 1, 1 port): the downstream instance has two
  // senders; the marker must be delivered exactly once.
  TopologySpec spec;
  StageSpec filter;
  filter.name = "filter";
  filter.parallelism = 2;
  filter.factory = [](int) {
    return std::make_unique<FilterOperator>([](const Row&) { return true; });
  };
  const int sf = spec.AddStage(std::move(filter));
  StageSpec trace;
  trace.name = "trace";
  trace.is_sink = true;
  trace.factory = [](int) { return std::make_unique<TraceOperator>(); };
  trace.inputs = {{sf, 0, Partitioning::kHash}};
  spec.AddStage(std::move(trace));
  spec.AddExternalInput({"in", sf, 0, Partitioning::kHash});

  SinkCollector sink;
  ThreadedRunner runner(std::move(spec), sink.AsFn(), nullptr, 64);
  ASSERT_TRUE(runner.Start().ok());
  for (int i = 0; i < 50; ++i) {
    runner.Push(0, StreamElement::MakeRecord(i, Row{i}));
  }
  ControlMarker marker;
  marker.kind = MarkerKind::kChangelog;
  marker.epoch = 7;
  marker.time = 100;
  runner.InjectMarker(marker);
  for (int i = 0; i < 50; ++i) {
    runner.Push(0, StreamElement::MakeRecord(100 + i, Row{i}));
  }
  runner.FinishAndWait();
  EXPECT_EQ(sink.records.size(), 100u);
  ASSERT_EQ(sink.markers.size(), 1u);
  EXPECT_EQ(sink.markers[0].epoch, 7);
}

/// The operator of a chained stage in the tests below. Emits
/// Row{key, seq, port} per record, counts what it saw, and on Close emits
/// Row{-1, count, instance the state came from}. Its snapshot is that
/// count plus its own instance index, so a restore shows which replica's
/// state each replica got back.
class ReplicaProbe : public Operator {
 public:
  int num_ports() const override { return 2; }
  Status Open(const OperatorContext& ctx) override {
    instance_ = ctx.instance_index;
    state_from_ = instance_;
    return Status::OK();
  }
  void ProcessRecord(int port, Record record, Collector* out) override {
    ++count_;
    out->Emit(StreamElement::MakeRecord(
        record.event_time,
        Row{record.row.At(0), record.row.At(1), static_cast<Value>(port)}));
  }
  Status SnapshotState(StateWriter* writer) override {
    writer->WriteI64(count_);
    writer->WriteI64(instance_);
    return Status::OK();
  }
  Status RestoreState(StateReader* reader) override {
    count_ = reader->ReadI64();
    state_from_ = static_cast<int>(reader->ReadI64());
    return reader->Ok() ? Status::OK() : Status::Internal("bad probe state");
  }
  void Close(Collector* out) override {
    out->Emit(StreamElement::MakeRecord(0, Row{-1, count_, state_from_}));
  }

 private:
  int instance_ = 0;
  int state_from_ = 0;
  int64_t count_ = 0;
};

/// What the sink saw of each chained replica, and on which threads.
struct ReplicaLog {
  std::mutex mutex;
  // Per replica: records (key, seq, port), markers, done signals, the
  // Close summary and the threads that called the sink.
  std::map<int, std::vector<std::tuple<Value, Value, Value>>> records;
  std::map<int, std::vector<ControlMarker>> markers;
  std::map<int, int> done;
  std::map<int, std::pair<Value, Value>> summary;
  std::map<int, std::set<std::thread::id>> threads;

  SinkFn AsFn(int chained_stage) {
    return [this, chained_stage](int stage, int instance,
                                 const StreamElement& el) {
      EXPECT_EQ(stage, chained_stage);
      std::lock_guard<std::mutex> lock(mutex);
      threads[instance].insert(std::this_thread::get_id());
      switch (el.kind) {
        case ElementKind::kRecord:
          if (el.record.row.At(0) < 0) {
            summary[instance] = {el.record.row.At(1), el.record.row.At(2)};
          } else {
            records[instance].emplace_back(el.record.row.At(0),
                                           el.record.row.At(1),
                                           el.record.row.At(2));
          }
          break;
        case ElementKind::kMarker:
          markers[instance].push_back(el.marker);
          break;
        case ElementKind::kDone:
          ++done[instance];
          break;
        case ElementKind::kWatermark:
          break;
      }
    };
  }
};

/// Two pass-through stages `a` and `b` (each `par` instances, each fed by
/// its own external input) feed one chained sink on ports 0 and 1.
/// Returns the chained stage's index (2).
TopologySpec ChainedSpec(int par) {
  TopologySpec spec;
  for (const char* name : {"a", "b"}) {
    StageSpec up;
    up.name = name;
    up.parallelism = par;
    up.factory = [](int) { return std::make_unique<PassThroughOperator>(); };
    const int s = spec.AddStage(std::move(up));
    spec.AddExternalInput({name, s, 0, Partitioning::kHash});
  }
  StageSpec chain;
  chain.name = "chain";
  chain.num_ports = 2;
  chain.is_sink = true;
  chain.chained = true;
  chain.factory = [](int) { return std::make_unique<ReplicaProbe>(); };
  chain.inputs = {{0, 0, Partitioning::kHash}, {1, 1, Partitioning::kHash}};
  spec.AddStage(std::move(chain));
  return spec;
}

constexpr int kChainStage = 2;

std::unique_ptr<Runner> MakeRunner(bool threaded, TopologySpec spec,
                                   SinkFn sink, SnapshotFn snapshot) {
  if (threaded) {
    return std::make_unique<ThreadedRunner>(std::move(spec), std::move(sink),
                                            std::move(snapshot), 64,
                                            /*batch_size=*/4);
  }
  return std::make_unique<SyncRunner>(std::move(spec), std::move(sink),
                                      std::move(snapshot), /*batch_size=*/4);
}

/// (threaded, parallelism)
class ChainedStageTest
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

// Replica r < par is fed by instance r of `a` on port 0, replica par + r
// by instance r of `b` on port 1. Each sees exactly its producer's records
// in push order, fires every marker and barrier on its own, snapshots
// under (stage, replica), closes on done, and restores its own state.
TEST_P(ChainedStageTest, ReplicasFollowTheirProducers) {
  const auto [threaded, par] = GetParam();
  constexpr int kRows = 200;
  const int replicas = 2 * par;
  ASSERT_EQ(ChainedSpec(par).NumInstances(kChainStage), replicas);

  CheckpointStore store;
  const size_t states = static_cast<size_t>(4 * par);  // a, b, replicas
  auto snapshot = [&store, states](int64_t id, int stage, int instance,
                                   std::vector<uint8_t> state) {
    store.AddOperatorState(id, stage, instance, std::move(state));
    store.MaybeComplete(id, states);
  };
  ReplicaLog log;
  auto runner =
      MakeRunner(threaded, ChainedSpec(par), log.AsFn(kChainStage), snapshot);
  ASSERT_TRUE(runner->Start().ok());
  ASSERT_EQ(runner->NumStages(), 3);
  if (threaded) {
    // No task, inbox or thread for the chained stage.
    auto* t = static_cast<ThreadedRunner*>(runner.get());
    const auto health = t->SampleTaskHealth();
    EXPECT_EQ(health.size(), static_cast<size_t>(2 * par));
    for (const auto& h : health) EXPECT_NE(h.stage, kChainStage);
    EXPECT_EQ(t->StageQueuedElements(kChainStage), 0u);
  }

  ControlMarker changelog;
  changelog.kind = MarkerKind::kChangelog;
  changelog.epoch = 7;
  changelog.time = 100;
  for (int i = 0; i < kRows; ++i) {
    runner->Push(i % 2, StreamElement::MakeRecord(i, Row{i / 2, i}));
    if (i == kRows / 2) runner->InjectMarker(changelog);
  }
  store.BeginCheckpoint(3, {});
  ControlMarker barrier;
  barrier.kind = MarkerKind::kCheckpointBarrier;
  barrier.epoch = 3;
  barrier.time = kRows;
  runner->InjectMarker(barrier);
  runner->FinishAndWait();
  ASSERT_TRUE(runner->Failure().ok());

  EXPECT_EQ(runner->StageRecordsIn(kChainStage), kRows);
  // + one Close summary per replica.
  EXPECT_EQ(runner->StageRecordsOut(kChainStage), kRows + replicas);
  std::set<Value> seen;
  for (int r = 0; r < replicas; ++r) {
    const Value port = r < par ? 0 : 1;
    const int producer = r % par;
    Value last_seq = -1;
    for (const auto& [key, seq, p] : log.records[r]) {
      EXPECT_EQ(p, port) << "replica " << r;
      EXPECT_EQ(seq % 2, port) << "replica " << r;
      EXPECT_EQ(internal::InstanceForKey(key, par), producer);
      EXPECT_GT(seq, last_seq) << "replica " << r << " reordered";
      last_seq = seq;
      EXPECT_TRUE(seen.insert(seq).second) << "seq " << seq << " twice";
    }
    ASSERT_EQ(log.markers[r].size(), 2u) << "replica " << r;
    EXPECT_EQ(log.markers[r][0].kind, MarkerKind::kChangelog);
    EXPECT_EQ(log.markers[r][0].epoch, 7);
    EXPECT_EQ(log.markers[r][1].kind, MarkerKind::kCheckpointBarrier);
    EXPECT_EQ(log.markers[r][1].epoch, 3);
    EXPECT_EQ(log.done[r], 1) << "replica " << r;
    EXPECT_EQ(log.summary[r].first,
              static_cast<Value>(log.records[r].size()));
    EXPECT_EQ(log.summary[r].second, r);
    if (threaded) {
      // The sink runs on the producer's task thread, one per replica.
      ASSERT_EQ(log.threads[r].size(), 1u) << "replica " << r;
      EXPECT_NE(*log.threads[r].begin(), std::this_thread::get_id());
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kRows));
  if (threaded) {
    std::set<std::thread::id> distinct;
    for (const auto& [r, ids] : log.threads) distinct.insert(*ids.begin());
    EXPECT_EQ(distinct.size(), static_cast<size_t>(replicas));
  }

  // Every replica snapshotted under (stage, replica); a fresh runner
  // restores each replica from its own entry.
  const auto checkpoint = store.LatestComplete();
  ASSERT_NE(checkpoint, nullptr);
  ASSERT_EQ(checkpoint->operator_state.size(), states);
  for (int r = 0; r < replicas; ++r) {
    EXPECT_EQ(checkpoint->operator_state.count(
                  CheckpointStore::StateKey(kChainStage, r)),
              1u);
  }
  ReplicaLog restored;
  auto again = MakeRunner(threaded, ChainedSpec(par),
                          restored.AsFn(kChainStage), nullptr);
  ASSERT_TRUE(again->Start().ok());
  ASSERT_TRUE(again->Restore(*checkpoint).ok());
  again->FinishAndWait();
  for (int r = 0; r < replicas; ++r) {
    EXPECT_EQ(restored.summary[r].first,
              static_cast<Value>(log.records[r].size()))
        << "replica " << r;
    EXPECT_EQ(restored.summary[r].second, r) << "replica " << r;
    EXPECT_EQ(restored.done[r], 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Runners, ChainedStageTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>>& info) {
      return std::string(std::get<0>(info.param) ? "Threaded" : "Sync") +
             "Par" + std::to_string(std::get<1>(info.param));
    });

TEST(ChainedStageValidateTest, RejectsMisuse) {
  // A chained stage with a downstream edge.
  {
    TopologySpec spec = ChainedSpec(1);
    StageSpec after;
    after.name = "after";
    after.num_ports = 1;
    after.factory = [](int) { return std::make_unique<PassThroughOperator>(); };
    after.inputs = {{kChainStage, 0, Partitioning::kHash}};
    spec.AddStage(std::move(after));
    EXPECT_FALSE(spec.Validate().ok());
    SyncRunner runner(std::move(spec), nullptr);
    EXPECT_FALSE(runner.Start().ok());
  }
  // A chained stage that is not a sink.
  {
    TopologySpec spec;
    StageSpec up;
    up.name = "up";
    up.factory = [](int) { return std::make_unique<PassThroughOperator>(); };
    const int s = spec.AddStage(std::move(up));
    spec.AddExternalInput({"in", s, 0, Partitioning::kHash});
    StageSpec chain;
    chain.name = "chain";
    chain.chained = true;
    chain.factory = [](int) { return std::make_unique<PassThroughOperator>(); };
    chain.inputs = {{s, 0, Partitioning::kHash}};
    spec.AddStage(std::move(chain));
    EXPECT_FALSE(spec.Validate().ok());
  }
  // An external input feeding a chained stage.
  {
    TopologySpec spec = ChainedSpec(1);
    spec.AddExternalInput({"direct", kChainStage, 0, Partitioning::kHash});
    EXPECT_FALSE(spec.Validate().ok());
  }
  EXPECT_TRUE(ChainedSpec(2).Validate().ok());
}

}  // namespace
}  // namespace astream::spe
