// SnapshotState -> RestoreState roundtrips for the stateful baseline
// operators and the changelog mask table: a restored instance must carry
// exactly the state of the original — its continued outputs and a second
// snapshot must match byte for byte.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/cl_table.h"
#include "core/router.h"
#include "spe/operators.h"

namespace astream::spe {
namespace {

class VectorCollector : public Collector {
 public:
  void Emit(StreamElement element) override {
    if (element.kind == ElementKind::kRecord) {
      records.push_back(std::move(element.record));
    }
  }
  void EmitRun(RecordBatch& run) override {
    records.insert(records.end(), std::make_move_iterator(run.begin()),
                   std::make_move_iterator(run.end()));
  }
  std::vector<Record> records;
};

OperatorContext TestContext() {
  OperatorContext ctx;
  ctx.stage_index = 0;
  ctx.instance_index = 0;
  ctx.parallelism = 1;
  ctx.stage_name = "test-op";
  return ctx;
}

std::vector<uint8_t> Snapshot(Operator* op) {
  StateWriter writer;
  EXPECT_TRUE(op->SnapshotState(&writer).ok());
  return writer.TakeBuffer();
}

void Restore(Operator* op, std::vector<uint8_t> state) {
  StateReader reader(std::move(state));
  ASSERT_TRUE(op->RestoreState(&reader).ok());
  EXPECT_TRUE(reader.Ok());
}

TEST(RestoreRoundtripTest, WindowAggregateOperator) {
  const WindowSpec window = WindowSpec::Sliding(20, 10);
  const AggSpec agg{AggKind::kSum, 1};
  WindowAggregateOperator original(window, agg, 0);
  ASSERT_TRUE(original.Open(TestContext()).ok());

  VectorCollector sink;
  original.ProcessRecord(0, Record{1, Row{1, 5}, {}}, &sink);
  original.ProcessRecord(0, Record{4, Row{2, 7}, {}}, &sink);
  original.ProcessRecord(0, Record{12, Row{1, 3}, {}}, &sink);
  original.ProcessRecord(0, Record{15, Row{2, 11}, {}}, &sink);
  ASSERT_TRUE(sink.records.empty());  // nothing fired yet

  const std::vector<uint8_t> state = Snapshot(&original);
  WindowAggregateOperator restored(window, agg, 0);
  ASSERT_TRUE(restored.Open(TestContext()).ok());
  Restore(&restored, state);

  // Both continue identically: one more tuple, then drain everything.
  VectorCollector out_a;
  VectorCollector out_b;
  original.ProcessRecord(0, Record{21, Row{1, 100}, {}}, &out_a);
  restored.ProcessRecord(0, Record{21, Row{1, 100}, {}}, &out_b);
  original.OnWatermark(100, &out_a);
  restored.OnWatermark(100, &out_b);
  ASSERT_FALSE(out_a.records.empty());
  ASSERT_EQ(out_a.records.size(), out_b.records.size());
  for (size_t i = 0; i < out_a.records.size(); ++i) {
    EXPECT_EQ(out_a.records[i].event_time, out_b.records[i].event_time);
    EXPECT_EQ(out_a.records[i].row, out_b.records[i].row);
  }
  EXPECT_EQ(Snapshot(&original), Snapshot(&restored));
}

TEST(RestoreRoundtripTest, WindowJoinOperator) {
  const WindowSpec window = WindowSpec::Sliding(20, 10);
  WindowJoinOperator original(window, 0);
  ASSERT_TRUE(original.Open(TestContext()).ok());

  VectorCollector sink;
  original.ProcessRecord(0, Record{2, Row{1, 10}, {}}, &sink);
  original.ProcessRecord(1, Record{3, Row{1, 20}, {}}, &sink);
  original.ProcessRecord(0, Record{11, Row{2, 30}, {}}, &sink);
  original.ProcessRecord(1, Record{12, Row{2, 40}, {}}, &sink);

  const std::vector<uint8_t> state = Snapshot(&original);
  WindowJoinOperator restored(window, 0);
  ASSERT_TRUE(restored.Open(TestContext()).ok());
  Restore(&restored, state);

  VectorCollector out_a;
  VectorCollector out_b;
  original.ProcessRecord(1, Record{14, Row{1, 50}, {}}, &out_a);
  restored.ProcessRecord(1, Record{14, Row{1, 50}, {}}, &out_b);
  original.OnWatermark(100, &out_a);
  restored.OnWatermark(100, &out_b);
  ASSERT_FALSE(out_a.records.empty());
  ASSERT_EQ(out_a.records.size(), out_b.records.size());
  for (size_t i = 0; i < out_a.records.size(); ++i) {
    EXPECT_EQ(out_a.records[i].event_time, out_b.records[i].event_time);
    EXPECT_EQ(out_a.records[i].row, out_b.records[i].row);
  }
  EXPECT_EQ(Snapshot(&original), Snapshot(&restored));
}

TEST(RestoreRoundtripTest, ClTable) {
  core::ClTable original;
  original.AddSlice(0, DynamicBitset::Single(0), 3);
  original.AddSlice(1, DynamicBitset::Single(1), 3);
  DynamicBitset both(3);
  both.Set(0);
  both.Set(2);
  original.AddSlice(2, both, 3);
  // Populate memoized masks before snapshotting.
  (void)original.Mask(2, 0);
  (void)original.Mask(1, 0);

  StateWriter writer;
  original.Serialize(&writer);
  core::ClTable restored;
  StateReader reader(writer.TakeBuffer());
  ASSERT_TRUE(restored.Restore(&reader).ok());
  ASSERT_TRUE(reader.Ok());

  EXPECT_EQ(restored.first_index(), original.first_index());
  EXPECT_EQ(restored.last_index(), original.last_index());
  for (int64_t j = 0; j <= 2; ++j) {
    for (int64_t i = j; i <= 2; ++i) {
      EXPECT_EQ(restored.Mask(i, j), original.Mask(i, j))
          << "mask mismatch at (" << i << ", " << j << ")";
    }
  }
}

TEST(RestoreRoundtripTest, RouterEpoch) {
  core::RouterOperator::Config config;
  config.num_ports = 1;
  core::RouterOperator original(std::move(config));
  ASSERT_TRUE(original.Open(TestContext()).ok());

  // Align a checkpoint barrier: the router's output epoch advances and
  // must survive the snapshot (recovery output-dedup depends on it).
  ControlMarker barrier;
  barrier.kind = MarkerKind::kCheckpointBarrier;
  barrier.epoch = 7;
  VectorCollector sink;
  original.OnMarker(barrier, &sink);

  const std::vector<uint8_t> state = Snapshot(&original);
  core::RouterOperator::Config config2;
  config2.num_ports = 1;
  core::RouterOperator restored(std::move(config2));
  ASSERT_TRUE(restored.Open(TestContext()).ok());
  Restore(&restored, state);
  EXPECT_EQ(Snapshot(&original), Snapshot(&restored));
}

}  // namespace
}  // namespace astream::spe
