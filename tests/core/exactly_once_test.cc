#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/astream.h"
#include "harness/reference.h"

namespace astream::core {
namespace {

using harness::RowMultiset;
using spe::Row;
using Kind = AStreamJob::TopologyKind;

/// Exactly-once semantics (Sec. 3.3): a run that fails after a checkpoint
/// and is restored from it — with the input replayed from the logged
/// offset — must produce exactly the same per-query output multiset as a
/// failure-free run. This works because everything in AStream is
/// deterministic in event time: changelogs, slicing, window ids.
class ExactlyOnceTest : public ::testing::Test {
 public:
  /// One scripted element of the experiment (the "source log").
  struct LogEntry {
    enum Kind { kPush, kWatermark, kSubmit, kCancel } kind;
    TimestampMs time = 0;
    Row row;
    QueryDescriptor desc;
    int cancel_index = -1;  // index into submitted ids
    int stream = 0;         // kPush
  };

 protected:
  std::unique_ptr<AStreamJob> MakeJob(Kind topology, ManualClock* clock,
                                      size_t batch_size) {
    AStreamJob::Options options;
    options.topology = topology;
    options.threaded = false;
    options.clock = clock;
    options.session.batch_size = 1;  // one changelog per request
    options.batch_size = batch_size;
    auto job = AStreamJob::Create(options);
    EXPECT_TRUE(job.ok());
    auto ptr = std::move(job).value();
    EXPECT_TRUE(ptr->Start().ok());
    return ptr;
  }

  /// Replays log[from..to) into the job; collects outputs.
  void Replay(AStreamJob* job, ManualClock* clock,
              const std::vector<LogEntry>& log, size_t from, size_t to,
              std::vector<QueryId>* ids,
              std::map<QueryId, RowMultiset>* outputs) {
    job->SetResultCallback(
        [outputs](QueryId id, const spe::Record& record) {
          harness::AddToMultiset(&(*outputs)[id], record.event_time,
                                 record.row);
        });
    for (size_t i = from; i < to; ++i) {
      const LogEntry& e = log[i];
      clock->SetMs(e.time);
      switch (e.kind) {
        case LogEntry::kPush:
          job->Push(e.stream, e.time, e.row);
          break;
        case LogEntry::kWatermark:
          job->PushWatermark(e.time);
          break;
        case LogEntry::kSubmit: {
          auto id = job->Submit(e.desc);
          ASSERT_TRUE(id.ok());
          ids->push_back(*id);
          job->Pump(true);
          break;
        }
        case LogEntry::kCancel:
          ASSERT_TRUE(job->Cancel((*ids)[e.cancel_index]).ok());
          job->Pump(true);
          break;
      }
    }
  }

  /// The failure-free run is element-at-a-time; the failing and the
  /// recovered runs move `batch_size`-record batches between operators.
  void RunScenario(Kind topology, const std::vector<LogEntry>& log,
                   size_t checkpoint_at, size_t batch_size = 1) {
    // ---- Failure-free run ----
    std::map<QueryId, RowMultiset> expected;
    {
      ManualClock clock;
      auto job = MakeJob(topology, &clock, 1);
      std::vector<QueryId> ids;
      Replay(job.get(), &clock, log, 0, log.size(), &ids, &expected);
      job->FinishAndWait();
    }

    // ---- Run that fails right after a checkpoint ----
    std::map<QueryId, RowMultiset> actual;
    spe::CheckpointStore::Checkpoint checkpoint;
    {
      ManualClock clock;
      auto job = MakeJob(topology, &clock, batch_size);
      std::vector<QueryId> ids;
      Replay(job.get(), &clock, log, 0, checkpoint_at, &ids, &actual);
      const int64_t cp = job->TriggerCheckpoint();
      auto snap = job->checkpoints().Get(cp);
      ASSERT_NE(snap, nullptr);
      ASSERT_TRUE(snap->complete) << "checkpoint incomplete";
      checkpoint = *snap;
      job->Stop();  // crash: everything after the barrier is lost
    }
    // ---- Recovery: fresh job, restore state, replay from the offset ----
    {
      ManualClock clock;
      clock.SetMs(log[checkpoint_at == 0 ? 0 : checkpoint_at - 1].time);
      auto job = MakeJob(topology, &clock, batch_size);
      ASSERT_TRUE(job->RestoreFrom(checkpoint).ok());
      std::vector<QueryId> ids;
      // The session's control-plane state (id counter, slot allocator,
      // active map) was part of the checkpoint, so queries submitted
      // after recovery get the same ids as in the failure-free run; the
      // prefix's ids are reconstructed for cancel bookkeeping.
      for (size_t i = 0; i < checkpoint_at; ++i) {
        if (log[i].kind == LogEntry::kSubmit) {
          ids.push_back(static_cast<QueryId>(ids.size() + 1));
        }
      }
      Replay(job.get(), &clock, log, checkpoint_at, log.size(), &ids,
             &actual);
      job->FinishAndWait();
    }

    EXPECT_EQ(actual.size(), expected.size());
    for (const auto& [id, rows] : expected) {
      EXPECT_EQ(actual[id], rows) << "query " << id;
    }
  }
};

std::vector<ExactlyOnceTest::LogEntry> AggregationLog() {
  using LogEntry = ExactlyOnceTest::LogEntry;
  std::vector<LogEntry> log;
  QueryDescriptor agg;
  agg.kind = QueryKind::kAggregation;
  agg.window = spe::WindowSpec::Sliding(60, 30);
  agg.agg = {spe::AggKind::kSum, 1};
  log.push_back({LogEntry::kSubmit, 0, {}, agg, -1});
  QueryDescriptor agg2;
  agg2.kind = QueryKind::kAggregation;
  agg2.window = spe::WindowSpec::Tumbling(45);
  agg2.agg = {spe::AggKind::kMax, 1};
  log.push_back({LogEntry::kSubmit, 2, {}, agg2, -1});
  for (int i = 0; i < 30; ++i) {
    log.push_back(
        {LogEntry::kPush, 5 + i * 7, Row{i % 3, i * 11 % 50}, {}, -1});
    if (i % 5 == 4) {
      log.push_back({LogEntry::kWatermark, 5 + i * 7, {}, {}, -1});
    }
  }
  log.push_back({LogEntry::kWatermark, 400, {}, {}, -1});
  return log;
}

std::vector<ExactlyOnceTest::LogEntry> JoinLog() {
  using LogEntry = ExactlyOnceTest::LogEntry;
  std::vector<LogEntry> log;
  QueryDescriptor join;
  join.kind = QueryKind::kJoin;
  join.window = spe::WindowSpec::Tumbling(50);
  log.push_back({LogEntry::kSubmit, 0, {}, join, -1});
  QueryDescriptor join2;
  join2.kind = QueryKind::kJoin;
  join2.window = spe::WindowSpec::Sliding(80, 40);
  join2.select_a = {Predicate{1, CmpOp::kLt, 40}};
  log.push_back({LogEntry::kSubmit, 1, {}, join2, -1});
  for (int i = 0; i < 24; ++i) {
    log.push_back(
        {LogEntry::kPush, 4 + i * 6, Row{i % 2, i * 13 % 60}, {}, -1});
    log.push_back(
        {LogEntry::kPush, 5 + i * 6, Row{i % 2, i * 17 % 60}, {}, -1, 1});
    if (i % 4 == 3) {
      log.push_back({LogEntry::kWatermark, 5 + i * 6, {}, {}, -1});
    }
  }
  log.push_back({LogEntry::kWatermark, 300, {}, {}, -1});
  return log;
}

TEST_F(ExactlyOnceTest, AggregationSurvivesFailure) {
  // Checkpoint mid-stream (after the 14th entry).
  RunScenario(Kind::kAggregation, AggregationLog(), 14);
}

TEST_F(ExactlyOnceTest, JoinSurvivesFailure) {
  RunScenario(Kind::kJoin, JoinLog(), 20);
}

// Batched operator edges (64-record batches) change neither the
// checkpointed state nor the recovered outputs.
TEST_F(ExactlyOnceTest, BatchedEdgesSurviveFailure) {
  RunScenario(Kind::kAggregation, AggregationLog(), 14, /*batch_size=*/64);
  RunScenario(Kind::kJoin, JoinLog(), 20, /*batch_size=*/64);
}

TEST_F(ExactlyOnceTest, AdhocChurnAfterRecovery) {
  // Queries are created and cancelled AFTER the checkpoint: the restored
  // session must hand out the same query ids and reuse the same slots as
  // the failure-free run.
  std::vector<LogEntry> log;
  QueryDescriptor agg;
  agg.kind = QueryKind::kAggregation;
  agg.window = spe::WindowSpec::Tumbling(40);
  agg.agg = {spe::AggKind::kSum, 1};
  log.push_back({LogEntry::kSubmit, 0, {}, agg, -1});
  log.push_back({LogEntry::kSubmit, 1, {}, agg, -1});
  for (int i = 0; i < 10; ++i) {
    log.push_back({LogEntry::kPush, 3 + i * 5, Row{i % 2, i}, {}, -1});
  }
  log.push_back({LogEntry::kWatermark, 60, {}, {}, -1});
  // --- checkpoint lands here (index 14) ---
  log.push_back({LogEntry::kCancel, 70, {}, {}, 0});  // delete query 1
  QueryDescriptor agg2 = agg;
  agg2.window = spe::WindowSpec::Tumbling(25);
  log.push_back({LogEntry::kSubmit, 75, {}, agg2, -1});  // reuses slot 0
  for (int i = 10; i < 25; ++i) {
    log.push_back({LogEntry::kPush, 30 + i * 5, Row{i % 2, i}, {}, -1});
  }
  log.push_back({LogEntry::kWatermark, 300, {}, {}, -1});
  RunScenario(Kind::kAggregation, log, 14);
}

TEST_F(ExactlyOnceTest, CheckpointAtDifferentOffsets) {
  std::vector<LogEntry> log;
  QueryDescriptor agg;
  agg.kind = QueryKind::kAggregation;
  agg.window = spe::WindowSpec::Tumbling(30);
  agg.agg = {spe::AggKind::kCount, 1};
  log.push_back({LogEntry::kSubmit, 0, {}, agg, -1});
  for (int i = 0; i < 20; ++i) {
    log.push_back(
        {LogEntry::kPush, 3 + i * 5, Row{i % 2, i}, {}, -1});
    if (i % 3 == 2) {
      log.push_back({LogEntry::kWatermark, 3 + i * 5, {}, {}, -1});
    }
  }
  log.push_back({LogEntry::kWatermark, 200, {}, {}, -1});
  for (size_t offset : {2u, 9u, 18u}) {
    RunScenario(Kind::kAggregation, log, offset);
  }
}

}  // namespace
}  // namespace astream::core
