// De-sharing (DESIGN.md §14): the IsolationManager must keep every
// query's output byte-identical to the never-migrated shared plan across
// whale ejection, hand-back, and cancellation — every window emitted
// exactly once, by exactly one of the two jobs.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/astream.h"
#include "core/isolation.h"
#include "harness/reference.h"

namespace astream::core {
namespace {

QueryDescriptor Minnow(int index) {
  QueryDescriptor d;
  d.kind = QueryKind::kAggregation;
  d.select_a = {Predicate{1, CmpOp::kLt, 600 + 100 * index}};
  d.window = spe::WindowSpec::Tumbling(400);
  d.agg = {spe::AggKind::kSum, 1};
  return d;
}

QueryDescriptor Whale() {
  QueryDescriptor d;
  d.kind = QueryKind::kAggregation;
  d.select_a = {Predicate{1, CmpOp::kGe, 0}};
  d.window = spe::WindowSpec::Sliding(800, 200);
  d.agg = {spe::AggKind::kSum, 1};
  return d;
}

enum class Mode {
  kShared,        // plain job: the byte-identity reference
  kSharedCancel,  // plain job cancelling the whale: cancel reference
  kEject,         // eject mid-run, stay de-shared to the end
  kEjectReadmit,  // eject, then hand back into the shared plan
  kEjectCancel,   // eject, then cancel the whale while de-shared
};

struct RunResult {
  std::map<QueryId, harness::RowMultiset> outputs;
  QueryId whale_id = -1;
  int64_t desharings = 0;
  bool dedicated_alive_at_end = false;
};

constexpr TimestampMs kTick = 50;
constexpr int kTicks = 60;
constexpr int kEjectTick = 20;
constexpr int kActTick = 35;  // readmit / cancel

RunResult Drive(Mode mode) {
  RunResult result;
  ManualClock clock;
  AStreamJob::Options options;
  options.topology = AStreamJob::TopologyKind::kAggregation;
  options.threaded = false;
  options.clock = &clock;
  options.session.batch_size = 1;
  options.enable_trace = false;
  const bool isolate =
      mode != Mode::kShared && mode != Mode::kSharedCancel;
  if (isolate) options.slo.enable_admission = true;
  auto job_or = AStreamJob::Create(options);
  EXPECT_TRUE(job_or.ok()) << job_or.status().ToString();
  std::unique_ptr<AStreamJob> job = std::move(job_or).value();
  EXPECT_TRUE(job->Start().ok());
  // Declared after `job`: the manager (whose primary callback captures
  // it) must destruct before the job.
  std::unique_ptr<IsolationManager> iso;
  if (isolate) iso = std::make_unique<IsolationManager>(job.get());

  const auto callback = [&result](QueryId id, const spe::Record& record) {
    harness::AddToMultiset(&result.outputs[id], record.event_time,
                           record.row);
  };
  if (iso != nullptr) {
    iso->SetResultCallback(callback);
  } else {
    job->SetResultCallback(callback);
  }

  const auto submit = [&](const QueryDescriptor& desc) {
    auto id = iso != nullptr ? iso->Submit(desc) : job->Submit(desc);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : -1;
  };

  clock.SetMs(0);
  submit(Minnow(0));
  submit(Minnow(1));
  result.whale_id = submit(Whale());
  if (iso != nullptr) {
    iso->Pump(true);
  } else {
    job->Pump(true);
  }

  bool whale_cancelled = false;
  for (int tick = 0; tick < kTicks; ++tick) {
    const TimestampMs now = (tick + 1) * kTick;
    clock.SetMs(now);
    // Deterministic arithmetic data: both runs push byte-identical rows.
    for (int i = 0; i < 4; ++i) {
      const spe::Row row{(tick * 4 + i) % 5, 10 + tick};
      const TimestampMs t = now - kTick + 1 + i * (kTick / 4);
      if (iso != nullptr) {
        iso->Push(0, t, row);
      } else {
        job->Push(0, t, row);
      }
    }
    const TimestampMs wm = now - 100;
    if (wm > 0) {
      if (iso != nullptr) {
        iso->PushWatermark(wm);
      } else {
        job->PushWatermark(wm);
      }
    }
    if (iso != nullptr) {
      iso->Pump(true);
    } else {
      job->Pump(true);
    }

    if (iso != nullptr && tick == kEjectTick) {
      const Status s = iso->EjectWhale(result.whale_id);
      EXPECT_TRUE(s.ok()) << s.ToString();
      EXPECT_TRUE(iso->HasDedicated());
      EXPECT_EQ(iso->whale(), result.whale_id);
    }
    if (iso != nullptr && tick == kActTick) {
      if (mode == Mode::kEjectReadmit) {
        const Status s = iso->BeginReadmit();
        EXPECT_TRUE(s.ok()) << s.ToString();
      } else if (mode == Mode::kEjectCancel) {
        const Status s = iso->Cancel(result.whale_id);
        EXPECT_TRUE(s.ok()) << s.ToString();
        EXPECT_FALSE(iso->HasDedicated());
        whale_cancelled = true;
      }
    }
    if (mode == Mode::kSharedCancel && tick == kActTick) {
      // Reference for the cancel scenario: same deletion marker time.
      EXPECT_TRUE(job->Cancel(result.whale_id).ok());
      job->Pump(true);
    }
    if (iso != nullptr) {
      const Status s = iso->Maintain();
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    EXPECT_TRUE(job->Health().ok());
  }

  // Drain every open window wherever it lives (primary or dedicated).
  const TimestampMs final_wm = kTicks * kTick + 800 + 400 + 100 + kTick;
  clock.SetMs(final_wm);
  if (iso != nullptr) {
    iso->PushWatermark(final_wm);
    iso->Pump(true);
    EXPECT_TRUE(iso->Maintain().ok());
    result.desharings = iso->desharings();
    result.dedicated_alive_at_end = iso->HasDedicated();
  } else {
    job->PushWatermark(final_wm);
    job->Pump(true);
  }
  EXPECT_TRUE(job->FinishAndWait().ok());
  (void)whale_cancelled;
  return result;
}

TEST(IsolationTest, EjectionIsByteIdentical) {
  const RunResult ref = Drive(Mode::kShared);
  const RunResult ejected = Drive(Mode::kEject);
  EXPECT_EQ(ejected.desharings, 1);
  EXPECT_TRUE(ejected.dedicated_alive_at_end);
  ASSERT_EQ(ref.whale_id, ejected.whale_id);
  EXPECT_EQ(ref.outputs, ejected.outputs);
  // The whale kept producing from its dedicated job.
  ASSERT_TRUE(ejected.outputs.count(ejected.whale_id));
  EXPECT_FALSE(ejected.outputs.at(ejected.whale_id).empty());
}

TEST(IsolationTest, ReadmissionHandsBackByteIdentical) {
  const RunResult ref = Drive(Mode::kShared);
  const RunResult handed = Drive(Mode::kEjectReadmit);
  EXPECT_EQ(handed.desharings, 1);
  // The hand-back completed: the dedicated job drained and died.
  EXPECT_FALSE(handed.dedicated_alive_at_end);
  EXPECT_EQ(ref.outputs, handed.outputs);
}

TEST(IsolationTest, CancelWhaleWhileEjected) {
  const RunResult ref = Drive(Mode::kSharedCancel);
  const RunResult cancelled = Drive(Mode::kEjectCancel);
  EXPECT_EQ(cancelled.desharings, 1);
  EXPECT_FALSE(cancelled.dedicated_alive_at_end);
  // Minnows are untouched by the whale's ejection + cancellation.
  for (const auto& [id, rows] : ref.outputs) {
    if (id == ref.whale_id) continue;
    ASSERT_TRUE(cancelled.outputs.count(id)) << "query " << id;
    EXPECT_EQ(cancelled.outputs.at(id), rows) << "query " << id;
  }
  // The whale's windows ending at or before the deletion marker drained
  // exactly once (from the dedicated job).
  ASSERT_TRUE(ref.outputs.count(ref.whale_id));
  EXPECT_EQ(cancelled.outputs.at(cancelled.whale_id),
            ref.outputs.at(ref.whale_id));
}

TEST(IsolationTest, EjectRequiresKnownQuery) {
  ManualClock clock;
  AStreamJob::Options options;
  options.topology = AStreamJob::TopologyKind::kAggregation;
  options.clock = &clock;
  options.session.batch_size = 1;
  options.enable_trace = false;
  options.slo.enable_admission = true;
  auto job = std::move(AStreamJob::Create(options)).value();
  ASSERT_TRUE(job->Start().ok());
  IsolationManager iso(job.get());
  EXPECT_FALSE(iso.EjectWhale(7).ok());      // never submitted
  EXPECT_FALSE(iso.BeginReadmit().ok());     // nothing de-shared
  EXPECT_TRUE(job->FinishAndWait().ok());
}

}  // namespace
}  // namespace astream::core
