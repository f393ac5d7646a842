// Exactly-once under induced failures and ad-hoc query churn: a supervised
// threaded job with seeded fault injection (operator crashes, a snapshot
// failure, a drop-to-closed channel, random push delays) must produce
// per-query output multisets byte-identical to a fault-free sync reference
// run of the same script — for every injector seed.

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "core/astream.h"
#include "fault/injector.h"
#include "harness/reference.h"
#include "harness/supervised_job.h"

namespace astream::harness {
namespace {

using core::AStreamJob;
using core::CmpOp;
using core::Predicate;
using core::QueryDescriptor;
using core::QueryId;
using core::QueryKind;
using spe::Row;

struct ChaosScript {
  struct Step {
    enum What {
      kPush,
      kWatermark,
      kSubmit,
      kCancel,
      kCheckpoint,
    };
    What what = kPush;
    int stream = 0;  // kPush
    TimestampMs time = 0;
    Row row;
    QueryDescriptor desc;
    int cancel_index = 0;  // index into submission order
  };
  std::vector<Step> steps;
  int num_submits = 0;
  int num_cancels = 0;
};

// ~600 tuples on two streams with 10 ad-hoc submits, 3 cancels, periodic
// watermarks and checkpoints. One fixed script: the injector seed is the
// only variable across test instances. With `wide_burst`, a long-window
// join query plus ~1600 wide (256-column) tuples with non-joining keys
// ride along — several MiB of live state that forces a budgeted run to
// spill without exploding the join output.
ChaosScript MakeChaosScript(bool wide_burst = false) {
  Rng rng(0xC4A05);
  ChaosScript script;
  auto submit = [&](TimestampMs t, bool selection) {
    QueryDescriptor d;
    if (selection) {
      d.kind = QueryKind::kSelection;
      d.select_a = {Predicate{1, CmpOp::kGt, rng.UniformInt(10, 60)}};
    } else {
      d.kind = QueryKind::kJoin;
      d.window = spe::WindowSpec::Sliding(rng.UniformInt(40, 120),
                                          rng.UniformInt(20, 40));
      d.select_a = {Predicate{1, CmpOp::kLt, rng.UniformInt(40, 95)}};
    }
    ChaosScript::Step s;
    s.what = ChaosScript::Step::kSubmit;
    s.time = t;
    s.desc = d;
    script.steps.push_back(std::move(s));
    ++script.num_submits;
  };
  auto cancel = [&](TimestampMs t, int index) {
    ChaosScript::Step s;
    s.what = ChaosScript::Step::kCancel;
    s.time = t;
    s.cancel_index = index;
    script.steps.push_back(std::move(s));
    ++script.num_cancels;
  };
  submit(0, false);
  submit(0, true);
  submit(0, false);
  submit(0, true);
  if (wide_burst) {
    // One long window so wide tuples stay live (and spillable) for a
    // few hundred ms instead of a couple of watermark periods.
    QueryDescriptor d;
    d.kind = QueryKind::kJoin;
    d.window = spe::WindowSpec::Sliding(400, 100);
    d.select_a = {Predicate{1, CmpOp::kLt, 95}};
    ChaosScript::Step s;
    s.what = ChaosScript::Step::kSubmit;
    s.time = 0;
    s.desc = d;
    script.steps.push_back(std::move(s));
    ++script.num_submits;
  }
  TimestampMs t = 1;
  for (int i = 0; i < 600; ++i) {
    t += rng.UniformInt(1, 3);
    ChaosScript::Step s;
    s.time = t;
    s.row = Row{rng.UniformInt(0, 6), rng.UniformInt(0, 99)};
    s.stream = rng.Bernoulli(0.5) ? 1 : 0;
    script.steps.push_back(std::move(s));
    if (wide_burst && i >= 40 && i < 440) {
      for (int k = 0; k < 4; ++k) {
        std::vector<spe::Value> wide(256, rng.UniformInt(0, 1'000'000));
        wide[0] = rng.UniformInt(1000, 9999);  // never joins (keys 0..6)
        wide[1] = rng.UniformInt(0, 99);
        ChaosScript::Step w;
        w.time = t;
        w.row = Row(std::move(wide));
        w.stream = k % 2;
        script.steps.push_back(std::move(w));
      }
    }
    if (i == 90 || i == 180 || i == 270 || i == 360 || i == 450 ||
        i == 520) {
      submit(t, i % 180 == 0);
    }
    if (i == 200) cancel(t, 0);
    if (i == 330) cancel(t, 2);
    if (i == 470) cancel(t, 5);
    if (i % 20 == 19) {
      ChaosScript::Step wm;
      wm.what = ChaosScript::Step::kWatermark;
      wm.time = t;
      script.steps.push_back(std::move(wm));
    }
    if (i % 80 == 79) {
      ChaosScript::Step cp;
      cp.what = ChaosScript::Step::kCheckpoint;
      cp.time = t;
      script.steps.push_back(std::move(cp));
    }
  }
  return script;
}

AStreamJob::Options BaseOptions(Clock* clock, bool threaded) {
  AStreamJob::Options options;
  options.topology = AStreamJob::TopologyKind::kJoin;
  options.parallelism = 1;
  options.threaded = threaded;
  options.clock = clock;
  options.session.batch_size = 1;
  return options;
}

// Fault-free oracle: the deterministic sync runner on a plain job.
// `force_unlimited` pins the reference to the in-memory path even when
// ASTREAM_MEMORY_BUDGET is set (the spill variant compares a budgeted
// chaos run against an unbudgeted oracle).
std::map<QueryId, RowMultiset> RunReference(const ChaosScript& script,
                                            bool force_unlimited = false) {
  ManualClock clock;
  AStreamJob::Options options = BaseOptions(&clock, false);
  if (force_unlimited) options.storage.memory_budget_bytes = -1;
  auto job = std::move(AStreamJob::Create(options)).value();
  EXPECT_TRUE(job->Start().ok());
  std::map<QueryId, RowMultiset> outputs;
  job->SetResultCallback([&](QueryId id, const spe::Record& record) {
    AddToMultiset(&outputs[id], record.event_time, record.row);
  });
  std::vector<QueryId> ids;
  for (const auto& step : script.steps) {
    clock.SetMs(step.time);
    switch (step.what) {
      case ChaosScript::Step::kPush:
        job->Push(step.stream, step.time, step.row);
        break;
      case ChaosScript::Step::kWatermark:
        job->PushWatermark(step.time);
        break;
      case ChaosScript::Step::kSubmit: {
        auto id = job->Submit(step.desc);
        EXPECT_TRUE(id.ok());
        ids.push_back(*id);
        job->Pump(true);
        break;
      }
      case ChaosScript::Step::kCancel:
        EXPECT_TRUE(job->Cancel(ids[step.cancel_index]).ok());
        job->Pump(true);
        break;
      case ChaosScript::Step::kCheckpoint:
        job->TriggerCheckpoint();
        break;
    }
  }
  EXPECT_TRUE(job->FinishAndWait().ok());
  return outputs;
}

struct ChaosOutcome {
  std::map<QueryId, RowMultiset> outputs;
  int64_t injected_crashes = 0;
  int64_t recoveries = 0;
  int64_t replayed_rows = 0;
  obs::MetricsRegistry::Snapshot metrics;
};

// The same script through a supervised threaded job with an active
// injector: three deterministic operator crashes (seed-shifted hit
// thresholds), one snapshot failure, one drop-to-closed channel, and
// low-probability push/consumer delays. `budget_bytes` > 0 caps state
// memory (spilling allowed) and arms storage-write faults: one crash
// mid-spill (torn run file) and two transient write failures.
ChaosOutcome RunChaos(const ChaosScript& script, uint64_t seed,
                      int64_t budget_bytes = 0) {
  fault::FaultInjector injector(seed);
  if (budget_bytes > 0) {
    fault::FaultInjector::Rule torn;
    torn.point = fault::FaultPoint::kStorageWrite;
    torn.action = fault::FaultAction::kThrow;
    torn.after_hits = 2 + static_cast<int64_t>(seed % 3);
    injector.AddRule(torn);
    fault::FaultInjector::Rule wfail;
    wfail.point = fault::FaultPoint::kStorageWrite;
    wfail.action = fault::FaultAction::kFail;
    wfail.after_hits = 40 + static_cast<int64_t>(seed) * 7;
    wfail.max_fires = 2;
    injector.AddRule(wfail);
    // Kill one background compaction mid-job (torn output discarded, the
    // store keeps serving from its input runs) and fail a later one
    // cleanly — exactly-once must hold through both.
    fault::FaultInjector::Rule ccrash;
    ccrash.point = fault::FaultPoint::kCompaction;
    ccrash.action = fault::FaultAction::kThrow;
    ccrash.after_hits = 1 + static_cast<int64_t>(seed % 2);
    injector.AddRule(ccrash);
    fault::FaultInjector::Rule cfail;
    cfail.point = fault::FaultPoint::kCompaction;
    cfail.action = fault::FaultAction::kFail;
    cfail.after_hits = 6 + static_cast<int64_t>(seed);
    injector.AddRule(cfail);
  }
  const int64_t shift = static_cast<int64_t>(seed) * 29;
  for (int64_t after : {500 + shift, 1000 + shift, 1500 + shift}) {
    fault::FaultInjector::Rule crash;
    crash.point = fault::FaultPoint::kOperatorProcess;
    crash.action = fault::FaultAction::kThrow;
    crash.after_hits = after;
    injector.AddRule(crash);
  }
  fault::FaultInjector::Rule snap;
  snap.point = fault::FaultPoint::kSnapshot;
  snap.action = fault::FaultAction::kFail;
  snap.after_hits = 9 + static_cast<int64_t>(seed % 5);
  injector.AddRule(snap);
  fault::FaultInjector::Rule drop;
  drop.point = fault::FaultPoint::kChannelPush;
  drop.action = fault::FaultAction::kClose;
  drop.after_hits = 2200 + static_cast<int64_t>(seed) * 13;
  injector.AddRule(drop);
  fault::FaultInjector::Rule delay;
  delay.point = fault::FaultPoint::kChannelPush;
  delay.action = fault::FaultAction::kDelay;
  delay.probability = 0.002;
  delay.max_fires = 0;
  delay.delay_us = 100;
  injector.AddRule(delay);
  fault::FaultInjector::Rule stall;
  stall.point = fault::FaultPoint::kConsumerStall;
  stall.action = fault::FaultAction::kDelay;
  stall.probability = 0.001;
  stall.max_fires = 0;
  stall.delay_us = 200;
  injector.AddRule(stall);

  ManualClock clock;
  SupervisedJob::Options options;
  options.job = BaseOptions(&clock, true);
  if (budget_bytes > 0) {
    options.job.storage.memory_budget_bytes = budget_bytes;
    // Aggressive folding so the kCompaction faults actually have jobs to
    // hit within this short script.
    options.job.storage.compaction_min_runs = 2;
  }
  options.pin_clock = [&clock](TimestampMs ms) { clock.SetMs(ms); };
  options.supervisor.backoff_initial_ms = 1;
  options.supervisor.backoff_max_ms = 8;

  ChaosOutcome outcome;
  {
    fault::ScopedFaultInjection scoped(&injector);
    SupervisedJob job(options);
    EXPECT_TRUE(job.Start().ok());
    std::mutex mutex;
    job.SetResultCallback([&](QueryId id, const spe::Record& record) {
      std::lock_guard<std::mutex> lock(mutex);
      AddToMultiset(&outcome.outputs[id], record.event_time, record.row);
    });
    std::vector<QueryId> ids;
    for (const auto& step : script.steps) {
      clock.SetMs(step.time);
      switch (step.what) {
        case ChaosScript::Step::kPush:
          job.Push(step.stream, step.time, step.row);
          break;
        case ChaosScript::Step::kWatermark:
          job.PushWatermark(step.time);
          break;
        case ChaosScript::Step::kSubmit: {
          auto id = job.Submit(step.desc);
          EXPECT_TRUE(id.ok()) << id.status().ToString();
          if (!id.ok()) return outcome;
          ids.push_back(*id);
          break;
        }
        case ChaosScript::Step::kCancel:
          EXPECT_TRUE(job.Cancel(ids[step.cancel_index]).ok());
          break;
        case ChaosScript::Step::kCheckpoint:
          EXPECT_GT(job.Checkpoint(), 0);
          break;
      }
    }
    const Status finish = job.FinishAndWait();
    EXPECT_TRUE(finish.ok()) << finish.ToString();
    outcome.injected_crashes =
        injector.fires(fault::FaultPoint::kOperatorProcess) +
        injector.fires(fault::FaultPoint::kChannelPush);
    outcome.recoveries = job.recoveries();
    outcome.replayed_rows = job.replayed_rows();
    outcome.metrics = job.job()->MetricsSnapshot();
  }
  return outcome;
}

class ChaosEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosEquivalenceTest, ExactlyOnceUnderCrashAndChurn) {
  const ChaosScript script = MakeChaosScript();
  ASSERT_GE(script.num_submits, 8);
  ASSERT_GE(script.num_cancels, 3);
  const auto reference = RunReference(script);
  const ChaosOutcome chaos = RunChaos(script, GetParam());

  // The faults actually happened and the supervisor actually recovered.
  EXPECT_GE(chaos.injected_crashes, 3);
  EXPECT_GE(chaos.recoveries, 1);
  EXPECT_GT(chaos.replayed_rows, 0);

  // Recovery metrics are exported and nonzero.
  EXPECT_GE(chaos.metrics.gauges.at("recovery.count"), 1);
  EXPECT_GT(chaos.metrics.gauges.at("recovery.replayed_rows"), 0);
  EXPECT_GE(chaos.metrics.histograms.at("recovery.latency_ms").count, 1);

  // Exactly-once: per-query outputs byte-identical to the fault-free
  // sync reference — no loss, no duplicates, across crashes and churn.
  EXPECT_EQ(reference.size(), chaos.outputs.size());
  EXPECT_EQ(reference, chaos.outputs);
}

// The wide-burst script under a 1 MiB budget: the supervised job spills,
// reloads, crashes mid-spill (torn run file), survives transient write
// failures AND the usual operator/channel faults — and its outputs still
// match an unbudgeted fault-free sync reference exactly.
TEST_P(ChaosEquivalenceTest, ExactlyOnceUnderCrashChurnAndSpill) {
  const ChaosScript script = MakeChaosScript(/*wide_burst=*/true);
  const auto reference = RunReference(script, /*force_unlimited=*/true);
  const ChaosOutcome chaos = RunChaos(script, GetParam(), 1 << 20);

  EXPECT_GE(chaos.injected_crashes, 3);
  EXPECT_GE(chaos.recoveries, 1);
  EXPECT_GT(chaos.replayed_rows, 0);

  // The budget actually bit: the final incarnation spilled to disk (every
  // incarnation rebuilds more state than 1 MiB, so each one spills).
  EXPECT_GE(chaos.metrics.histograms.at("storage.spill_ms").count, 1);
  EXPECT_GE(chaos.metrics.gauges.at("storage.budget_bytes"), 1 << 20);
  // Storage-v2 gauges are live on a budgeted job (compaction may or may
  // not have fired under these faults, but the drill-down must exist).
  EXPECT_EQ(chaos.metrics.gauges.count("storage.compaction_runs"), 1u);
  EXPECT_EQ(chaos.metrics.gauges.count("storage.compressed_ratio_bp"), 1u);
  EXPECT_LE(chaos.metrics.gauges.at("storage.compressed_ratio_bp"), 10000);

  EXPECT_EQ(reference.size(), chaos.outputs.size());
  EXPECT_EQ(reference, chaos.outputs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosEquivalenceTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace astream::harness
