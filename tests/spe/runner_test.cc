#include "spe/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
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
  runner.PushBatch(0, std::move(batch));
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

}  // namespace
}  // namespace astream::spe
