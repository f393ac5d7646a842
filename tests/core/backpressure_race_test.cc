// Submit/Cancel racing a backpressured or shut-down job: the control
// plane must stay functional while the data plane refuses tuples
// (kBackpressure under a no-spill memory budget, kShutdown after Stop),
// in both the deterministic sync runner and the threaded runner.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/astream.h"

namespace astream::core {
namespace {

QueryDescriptor WideAgg(int index) {
  QueryDescriptor d;
  d.kind = QueryKind::kAggregation;
  d.select_a = {Predicate{1, CmpOp::kLt, 900 + index}};
  d.window = spe::WindowSpec::Sliding(2000, 500);
  d.agg = {spe::AggKind::kSum, 1};
  return d;
}

spe::Row WideRow(int i) {
  // Unique key per row: every tuple opens a fresh accumulator in each
  // aggregation's slice state, so retained bytes grow with every push.
  std::vector<spe::Value> values(16, i % 500);
  values[0] = i;
  return spe::Row(std::move(values));
}

TEST(BackpressureRaceTest, SubmitCancelWhileBackpressured) {
  ManualClock clock;
  AStreamJob::Options options;
  options.topology = AStreamJob::TopologyKind::kAggregation;
  options.threaded = false;
  options.clock = &clock;
  options.session.batch_size = 1;
  options.enable_trace = false;
  // Tiny budget, spilling forbidden: pushes hit kBackpressure once the
  // retained state overflows.
  options.storage.memory_budget_bytes = 32 * 1024;
  options.storage.allow_spill = false;
  auto job = std::move(AStreamJob::Create(options)).value();
  ASSERT_TRUE(job->Start().ok());
  ASSERT_TRUE(job->Submit(WideAgg(0)).ok());
  clock.SetMs(0);
  job->Pump(true);

  int64_t outputs = 0;
  job->SetResultCallback(
      [&outputs](QueryId, const spe::Record&) { ++outputs; });

  // Push until the budget pushes back.
  TimestampMs t = 0;
  bool backpressured = false;
  for (int i = 0; i < 20000 && !backpressured; ++i) {
    t = 1 + i;
    clock.SetMs(t);
    backpressured = job->Push(0, t, WideRow(i)) == PushResult::kBackpressure;
  }
  ASSERT_TRUE(backpressured);

  // The data plane is refusing tuples; the control plane must not.
  const auto added = job->Submit(WideAgg(1));
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  ASSERT_TRUE(job->Cancel(*added).ok());
  const auto kept = job->Submit(WideAgg(2));
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  job->Pump(true);
  ASSERT_TRUE(job->Health().ok());

  // Draining the open windows releases state; acceptance returns.
  bool accepted_again = false;
  for (int round = 0; round < 16 && !accepted_again; ++round) {
    job->PushWatermark(t);
    job->Pump(true);
    t += 500;
    clock.SetMs(t);
    accepted_again = job->Push(0, t, WideRow(0)) == PushResult::kAccepted;
  }
  EXPECT_TRUE(accepted_again);
  EXPECT_GT(outputs, 0);
  EXPECT_GE(job->MetricsSnapshot().counters.at("job.push_backpressure"),
            1);
  EXPECT_TRUE(job->FinishAndWait().ok());
}

TEST(BackpressureRaceTest, ShutdownInterleavings) {
  ManualClock clock;
  AStreamJob::Options options;
  options.topology = AStreamJob::TopologyKind::kAggregation;
  options.threaded = false;
  options.clock = &clock;
  options.session.batch_size = 1;
  options.enable_trace = false;
  auto job = std::move(AStreamJob::Create(options)).value();

  // Before Start(): permanent refusal, not transient backpressure.
  EXPECT_EQ(job->Push(0, 1, spe::Row{0, 1}), PushResult::kShutdown);
  EXPECT_FALSE(job->Submit(WideAgg(0)).ok());

  ASSERT_TRUE(job->Start().ok());
  const auto id = job->Submit(WideAgg(0));
  ASSERT_TRUE(id.ok());
  clock.SetMs(1);
  job->Pump(true);
  EXPECT_EQ(job->Push(0, 1, spe::Row{0, 1}), PushResult::kAccepted);

  ASSERT_TRUE(job->Stop().ok());
  // After Stop(): pushes report kShutdown, control ops fail cleanly, and
  // none of it crashes or corrupts health.
  EXPECT_EQ(job->Push(0, 2, spe::Row{0, 1}), PushResult::kShutdown);
  EXPECT_EQ(job->Push(1, 2, spe::Row{0, 1}), PushResult::kShutdown);
  EXPECT_FALSE(job->Submit(WideAgg(1)).ok());
  EXPECT_FALSE(job->Cancel(*id).ok());
  EXPECT_TRUE(job->Health().ok());
}

TEST(BackpressureRaceTest, ThreadedSubmitCancelChurnUnderLoad) {
  AStreamJob::Options options;
  options.topology = AStreamJob::TopologyKind::kAggregation;
  options.threaded = true;
  options.parallelism = 2;
  options.session.batch_size = 1;
  options.enable_trace = false;
  // Small channels: the control thread's pushes run ahead of the workers
  // and the facade absorbs the resulting backpressure.
  options.channel_capacity = 4;
  auto job = std::move(AStreamJob::Create(options)).value();
  ASSERT_TRUE(job->Start().ok());

  std::atomic<int64_t> outputs{0};
  job->SetResultCallback(
      [&outputs](QueryId, const spe::Record&) { ++outputs; });

  // One control thread (the facade contract) interleaving data with
  // submit/cancel churn; sink threads deliver results concurrently.
  QueryId live = -1;
  ASSERT_TRUE(job->Submit(WideAgg(0)).ok());
  for (int i = 0; i < 4000; ++i) {
    const TimestampMs t = 1 + i;
    const PushResult push = job->Push(0, t, WideRow(i));
    EXPECT_NE(push, PushResult::kShutdown) << "tuple " << i;
    if (i % 400 == 399) {
      if (live != -1) {
        ASSERT_TRUE(job->Cancel(live).ok());
      }
      auto id = job->Submit(WideAgg(1 + i % 3));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      live = *id;
      job->Pump(true);
    }
    if (i % 250 == 249) job->PushWatermark(t - 100);
  }
  EXPECT_TRUE(job->FinishAndWait().ok());
  EXPECT_TRUE(job->Health().ok());
  EXPECT_GT(outputs.load(), 0);
}

}  // namespace
}  // namespace astream::core
