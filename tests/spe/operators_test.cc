#include "spe/operators.h"

#include <gtest/gtest.h>

#include "spe/runner.h"

namespace astream::spe {
namespace {

/// Runs a single operator through the sync runner and collects outputs.
class SingleOpHarness {
 public:
  explicit SingleOpHarness(std::unique_ptr<Operator> op, int num_ports = 1) {
    TopologySpec spec;
    StageSpec stage;
    stage.name = "op";
    stage.num_ports = num_ports;
    stage.is_sink = true;
    Operator* raw = op.release();
    stage.factory = [raw](int) { return std::unique_ptr<Operator>(raw); };
    const int s = spec.AddStage(std::move(stage));
    spec.AddExternalInput({"a", s, 0, Partitioning::kHash});
    if (num_ports > 1) {
      spec.AddExternalInput({"b", s, 1, Partitioning::kHash});
    }
    runner_ = std::make_unique<SyncRunner>(
        std::move(spec),
        [this](int, int, const SinkOutput& output) {
          records_.insert(records_.end(), output.records.begin(),
                          output.records.end());
        });
    EXPECT_TRUE(runner_->Start().ok());
  }

  void Push(int input, TimestampMs t, Row row) {
    runner_->Push(input, StreamElement::MakeRecord(t, std::move(row)));
  }
  void Watermark(TimestampMs wm) {
    runner_->Push(0, StreamElement::MakeWatermark(wm));
  }
  void WatermarkBoth(TimestampMs wm) {
    runner_->Push(0, StreamElement::MakeWatermark(wm));
    runner_->Push(1, StreamElement::MakeWatermark(wm));
  }
  void Finish() { runner_->FinishAndWait(); }

  const std::vector<Record>& records() const { return records_; }

 private:
  std::unique_ptr<SyncRunner> runner_;
  std::vector<Record> records_;
};

TEST(WindowAggregateOperatorTest, TumblingSumPerKey) {
  SingleOpHarness h(std::make_unique<WindowAggregateOperator>(
      WindowSpec::Tumbling(10), AggSpec{AggKind::kSum, 1}, 0));
  h.Push(0, 1, Row{1, 5});
  h.Push(0, 2, Row{2, 7});
  h.Push(0, 9, Row{1, 3});
  h.Push(0, 12, Row{1, 100});  // next window
  h.Watermark(10);
  ASSERT_EQ(h.records().size(), 2u);
  // Ordered by key (std::map).
  EXPECT_EQ(h.records()[0].row, (Row{1, 8}));
  EXPECT_EQ(h.records()[0].event_time, 9);
  EXPECT_EQ(h.records()[1].row, (Row{2, 7}));
  h.Finish();
  ASSERT_EQ(h.records().size(), 3u);
  EXPECT_EQ(h.records()[2].row, (Row{1, 100}));
}

TEST(WindowAggregateOperatorTest, SlidingCountsOverlap) {
  SingleOpHarness h(std::make_unique<WindowAggregateOperator>(
      WindowSpec::Sliding(10, 5), AggSpec{AggKind::kCount, 1}, 0));
  h.Push(0, 7, Row{1, 1});
  h.Finish();
  // t=7 is in [0,10) and [5,15): two emissions of count 1.
  ASSERT_EQ(h.records().size(), 2u);
  EXPECT_EQ(h.records()[0].row, (Row{1, 1}));
  EXPECT_EQ(h.records()[1].row, (Row{1, 1}));
  EXPECT_EQ(h.records()[0].event_time, 9);
  EXPECT_EQ(h.records()[1].event_time, 14);
}

TEST(WindowAggregateOperatorTest, MinMaxAvg) {
  SingleOpHarness h(std::make_unique<WindowAggregateOperator>(
      WindowSpec::Tumbling(10), AggSpec{AggKind::kMax, 2}, 0));
  h.Push(0, 1, Row{1, 0, 5});
  h.Push(0, 2, Row{1, 0, 9});
  h.Push(0, 3, Row{1, 0, 2});
  h.Finish();
  ASSERT_EQ(h.records().size(), 1u);
  EXPECT_EQ(h.records()[0].row, (Row{1, 9}));
}

TEST(WindowAggregateOperatorTest, SessionWindowsMergeAndClose) {
  SingleOpHarness h(std::make_unique<WindowAggregateOperator>(
      WindowSpec::Session(5), AggSpec{AggKind::kSum, 1}, 0));
  h.Push(0, 1, Row{1, 10});
  h.Push(0, 4, Row{1, 20});   // merges (gap 5 > 3)
  h.Push(0, 20, Row{1, 30});  // separate session
  h.Watermark(10);            // first session closed at 4+5=9 <= 10
  ASSERT_EQ(h.records().size(), 1u);
  EXPECT_EQ(h.records()[0].row, (Row{1, 30}));
  EXPECT_EQ(h.records()[0].event_time, 8);  // last + gap - 1
  h.Finish();
  ASSERT_EQ(h.records().size(), 2u);
  EXPECT_EQ(h.records()[1].row, (Row{1, 30}));
}

TEST(WindowAggregateOperatorTest, SessionOutOfOrderMergesBackward) {
  SingleOpHarness h(std::make_unique<WindowAggregateOperator>(
      WindowSpec::Session(5), AggSpec{AggKind::kSum, 1}, 0));
  h.Push(0, 10, Row{1, 1});
  h.Push(0, 20, Row{1, 2});
  h.Push(0, 13, Row{1, 4});  // merges backward into the t=10 session
  h.Finish();
  // Sessions: {10,13} (13 -> 20 gap is 7 > 5) and {20}.
  ASSERT_EQ(h.records().size(), 2u);
  EXPECT_EQ(h.records()[0].row, (Row{1, 5}));
  EXPECT_EQ(h.records()[0].event_time, 17);
  EXPECT_EQ(h.records()[1].row, (Row{1, 2}));
}

TEST(WindowAggregateOperatorTest, IgnoresPreOriginEvents) {
  SingleOpHarness h(std::make_unique<WindowAggregateOperator>(
      WindowSpec::Tumbling(10), AggSpec{AggKind::kSum, 1}, 100));
  h.Push(0, 50, Row{1, 5});
  h.Push(0, 105, Row{1, 7});
  h.Finish();
  ASSERT_EQ(h.records().size(), 1u);
  EXPECT_EQ(h.records()[0].row, (Row{1, 7}));
}

TEST(WindowJoinOperatorTest, JoinsWithinWindowOnKey) {
  SingleOpHarness h(
      std::make_unique<WindowJoinOperator>(WindowSpec::Tumbling(10), 0), 2);
  h.Push(0, 1, Row{1, 100});
  h.Push(1, 2, Row{1, 200});
  h.Push(0, 3, Row{2, 300});
  h.Push(1, 4, Row{3, 400});  // no A-side key 3
  h.Push(0, 15, Row{1, 500});
  h.Push(1, 16, Row{1, 600});
  h.WatermarkBoth(10);
  ASSERT_EQ(h.records().size(), 1u);
  EXPECT_EQ(h.records()[0].row, (Row{1, 100, 1, 200}));
  EXPECT_EQ(h.records()[0].event_time, 9);
  h.Finish();
  ASSERT_EQ(h.records().size(), 2u);
  EXPECT_EQ(h.records()[1].row, (Row{1, 500, 1, 600}));
}

TEST(WindowJoinOperatorTest, CrossProductWithinKey) {
  SingleOpHarness h(
      std::make_unique<WindowJoinOperator>(WindowSpec::Tumbling(10), 0), 2);
  h.Push(0, 1, Row{1, 1});
  h.Push(0, 2, Row{1, 2});
  h.Push(1, 3, Row{1, 3});
  h.Push(1, 4, Row{1, 4});
  h.Finish();
  EXPECT_EQ(h.records().size(), 4u);
}

TEST(WindowJoinOperatorTest, RejectsSessionWindows) {
  TopologySpec spec;
  StageSpec stage;
  stage.name = "join";
  stage.num_ports = 2;
  stage.factory = [](int) {
    return std::make_unique<WindowJoinOperator>(WindowSpec::Session(5), 0);
  };
  const int s = spec.AddStage(std::move(stage));
  spec.AddExternalInput({"a", s, 0, Partitioning::kHash});
  spec.AddExternalInput({"b", s, 1, Partitioning::kHash});
  SyncRunner runner(std::move(spec), nullptr);
  EXPECT_FALSE(runner.Start().ok());
}

TEST(OperatorSnapshotTest, AggregateRoundTrip) {
  WindowAggregateOperator op(WindowSpec::Sliding(10, 5),
                             AggSpec{AggKind::kSum, 1}, 0);
  OperatorContext ctx;
  ASSERT_TRUE(op.Open(ctx).ok());

  class NullCollector : public Collector {
   public:
    void Emit(StreamElement) override {}
    void EmitRun(RecordBatch&) override {}
  } null_out;
  Record r;
  r.event_time = 7;
  r.row = Row{1, 42};
  op.ProcessRecord(0, r, &null_out);

  StateWriter writer;
  ASSERT_TRUE(op.SnapshotState(&writer).ok());

  WindowAggregateOperator restored(WindowSpec::Sliding(10, 5),
                                   AggSpec{AggKind::kSum, 1}, 0);
  ASSERT_TRUE(restored.Open(ctx).ok());
  StateReader reader(writer.TakeBuffer());
  ASSERT_TRUE(restored.RestoreState(&reader).ok());

  class RecordingCollector : public Collector {
   public:
    void Emit(StreamElement el) override { records.push_back(el.record); }
    void EmitRun(RecordBatch& run) override {
      records.insert(records.end(), run.begin(), run.end());
    }
    std::vector<Record> records;
  } out;
  restored.OnWatermark(kMaxTimestamp, &out);
  ASSERT_EQ(out.records.size(), 2u);  // windows [0,10) and [5,15)
  EXPECT_EQ(out.records[0].row, (Row{1, 42}));
  EXPECT_EQ(out.records[1].row, (Row{1, 42}));
}

}  // namespace
}  // namespace astream::spe
