#include "harness/source_log.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "harness/reference.h"
#include "harness/supervised_job.h"

namespace astream::harness {
namespace {

using core::AStreamJob;
using core::QueryDescriptor;
using core::QueryId;
using core::QueryKind;
using spe::Row;

TEST(SourceLogTest, OffsetsAndReplayBounds) {
  SourceLog log;
  EXPECT_EQ(log.EndOffset(), 0);
  log.LogRecord(0, 1, Row{1, 2});
  log.LogWatermark(5);
  log.LogRecord(1, 6, Row{2, 3});
  EXPECT_EQ(log.EndOffset(), 3);
  EXPECT_EQ(log.At(2).kind, SourceLog::Entry::kRecord);
  EXPECT_EQ(log.At(2).stream, 1);
  log.TruncateBelow(2);
  EXPECT_EQ(log.first_offset(), 2);
  EXPECT_EQ(log.EndOffset(), 3);
}

// The checkpoint + source-log + replay loop of Sec. 3.3 on one supervised
// aggregation job: a crash injected at a chosen point (a threaded engine
// declared failed) is recovered on the next push, and the delivered
// outputs equal a failure-free sync run exactly.
class SupervisedJobTest : public ::testing::Test {
 protected:
  using Outputs = std::map<QueryId, RowMultiset>;

  AStreamJob::Options JobOptions(bool threaded) {
    AStreamJob::Options options;
    options.topology = AStreamJob::TopologyKind::kAggregation;
    options.threaded = threaded;
    options.clock = &clock_;
    options.session.batch_size = 1;
    return options;
  }

  SupervisedJob::Options Options() {
    SupervisedJob::Options options;
    options.job = JobOptions(/*threaded=*/true);  // crashes need threads
    options.pin_clock = [this](TimestampMs ms) { clock_.SetMs(ms); };
    options.supervisor.backoff_initial_ms = 1;
    options.supervisor.backoff_max_ms = 8;
    return options;
  }

  static QueryDescriptor Agg() {
    QueryDescriptor d;
    d.kind = QueryKind::kAggregation;
    d.window = spe::WindowSpec::Tumbling(40);
    d.agg = {spe::AggKind::kSum, 1};
    return d;
  }

  // Rows at t = 2, 5, 8, ... in [from, to), a watermark every 30 ms.
  template <typename Job>
  void Feed(Job* job, int from, int to) {
    for (int t = from; t < to; t += 3) {
      clock_.SetMs(t);
      job->Push(0, t, Row{t % 2, t});
      if (t % 30 == 2) job->PushWatermark(t);
    }
  }

  Outputs FailureFree() {
    auto job = std::move(AStreamJob::Create(JobOptions(false))).value();
    EXPECT_TRUE(job->Start().ok());
    Outputs outputs;
    job->SetResultCallback([&](QueryId id, const spe::Record& r) {
      AddToMultiset(&outputs[id], r.event_time, r.row);
    });
    clock_.SetMs(0);
    EXPECT_TRUE(job->Submit(Agg()).ok());
    job->Pump(true);
    Feed(job.get(), 2, 200);
    EXPECT_TRUE(job->FinishAndWait().ok());
    EXPECT_FALSE(outputs.empty());
    return outputs;
  }

  void Start(SupervisedJob* job) {
    ASSERT_TRUE(job->Start().ok());
    job->SetResultCallback([this](QueryId id, const spe::Record& r) {
      std::lock_guard<std::mutex> lock(mu_);
      AddToMultiset(&outputs_[id], r.event_time, r.row);
    });
    clock_.SetMs(0);
    ASSERT_TRUE(job->Submit(Agg()).ok());
  }

  static void Crash(SupervisedJob* job) {
    job->job()->DeclareFailed(Status::Internal("injected crash"));
  }

  ManualClock clock_;
  std::mutex mu_;
  Outputs outputs_;
};

TEST_F(SupervisedJobTest, RecoversWithoutCheckpointByFullReplay) {
  const Outputs expected = FailureFree();
  SupervisedJob job(Options());
  Start(&job);
  Feed(&job, 2, 101);
  Crash(&job);
  // No checkpoint exists: the next push recovers by replaying the whole
  // log, submit included, into a fresh job.
  Feed(&job, 101, 200);
  ASSERT_TRUE(job.FinishAndWait().ok());
  EXPECT_EQ(job.recoveries(), 1);
  EXPECT_GT(job.replayed_rows(), 0);
  EXPECT_EQ(outputs_, expected);
}

TEST_F(SupervisedJobTest, FullRecoveryLoopMatchesFailureFree) {
  const Outputs expected = FailureFree();
  SupervisedJob job(Options());
  Start(&job);
  Feed(&job, 2, 101);
  EXPECT_GT(job.Checkpoint(), 0);
  Feed(&job, 101, 131);
  // Crash after the checkpoint: recovery restores it (or replays from the
  // start if it had not completed yet) and the dedup filter drops what the
  // dead incarnation already delivered.
  Crash(&job);
  Feed(&job, 131, 200);
  ASSERT_TRUE(job.FinishAndWait().ok());
  EXPECT_EQ(job.recoveries(), 1);
  EXPECT_EQ(outputs_, expected);
}

TEST_F(SupervisedJobTest, LogTruncationAfterCheckpointStillRecovers) {
  const Outputs expected = FailureFree();
  SupervisedJob job(Options());
  Start(&job);
  Feed(&job, 2, 80);
  const int64_t first = job.Checkpoint();
  ASSERT_GT(first, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (job.checkpoints().LatestComplete() == nullptr ||
         job.checkpoints().LatestComplete()->id < first) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Feed(&job, 80, 92);
  // The next checkpoint retires the log prefix the completed one covers
  // (Kafka retention); a later crash replays from the truncated log.
  ASSERT_GT(job.Checkpoint(), first);
  EXPECT_GT(job.log().first_offset(), 0);
  Feed(&job, 92, 122);
  Crash(&job);
  Feed(&job, 122, 200);
  ASSERT_TRUE(job.FinishAndWait().ok());
  EXPECT_EQ(job.recoveries(), 1);
  EXPECT_EQ(outputs_, expected);
}

}  // namespace
}  // namespace astream::harness
