// Unit tests for the fault-injection + recovery building blocks: injector
// determinism, runner poisoning under injected crashes, supervisor backoff
// and terminal failure, stall detection, and checkpoint retention.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "fault/injector.h"
#include "spe/operators.h"
#include "spe/runner.h"
#include "spe/state.h"
#include "spe/supervisor.h"

namespace astream::spe {
namespace {

using fault::FaultAction;
using fault::FaultInjector;
using fault::FaultPoint;

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  auto configure = [](FaultInjector* injector) {
    FaultInjector::Rule coin;
    coin.point = FaultPoint::kChannelPush;
    coin.action = FaultAction::kDelay;
    coin.probability = 0.25;
    coin.max_fires = 0;
    coin.delay_us = 5;
    injector->AddRule(coin);
    FaultInjector::Rule threshold;
    threshold.point = FaultPoint::kOperatorProcess;
    threshold.action = FaultAction::kThrow;
    threshold.after_hits = 40;
    injector->AddRule(threshold);
  };
  FaultInjector a(7);
  FaultInjector b(7);
  FaultInjector c(8);
  configure(&a);
  configure(&b);
  configure(&c);
  std::vector<bool> fires_a;
  std::vector<bool> fires_b;
  std::vector<bool> fires_c;
  for (int i = 0; i < 200; ++i) {
    fires_a.push_back(static_cast<bool>(a.Decide(FaultPoint::kChannelPush)));
    fires_b.push_back(static_cast<bool>(b.Decide(FaultPoint::kChannelPush)));
    fires_c.push_back(static_cast<bool>(c.Decide(FaultPoint::kChannelPush)));
  }
  EXPECT_EQ(fires_a, fires_b);
  EXPECT_NE(fires_a, fires_c);  // a different seed reshuffles the coin
  EXPECT_GT(a.fires(FaultPoint::kChannelPush), 0);
  EXPECT_LT(a.fires(FaultPoint::kChannelPush), 200);
}

TEST(FaultInjectorTest, AfterHitsAndMaxFiresAreExact) {
  FaultInjector injector(1);
  FaultInjector::Rule rule;
  rule.point = FaultPoint::kOperatorProcess;
  rule.action = FaultAction::kThrow;
  rule.after_hits = 5;
  rule.max_fires = 2;
  injector.AddRule(rule);
  std::vector<int> fired_on;
  for (int i = 1; i <= 12; ++i) {
    if (injector.Decide(FaultPoint::kOperatorProcess)) fired_on.push_back(i);
  }
  EXPECT_EQ(fired_on, (std::vector<int>{6, 7}));
  EXPECT_EQ(injector.hits(FaultPoint::kOperatorProcess), 12);
  EXPECT_EQ(injector.fires(FaultPoint::kOperatorProcess), 2);
  EXPECT_EQ(injector.total_fires(), 2);
}

TEST(FaultInjectorTest, StageFilterRestrictsFiring) {
  FaultInjector injector(1);
  FaultInjector::Rule rule;
  rule.point = FaultPoint::kOperatorProcess;
  rule.action = FaultAction::kFail;
  rule.stage = 2;
  injector.AddRule(rule);
  EXPECT_FALSE(injector.Decide(FaultPoint::kOperatorProcess, 0));
  EXPECT_FALSE(injector.Decide(FaultPoint::kOperatorProcess, 1));
  EXPECT_TRUE(injector.Decide(FaultPoint::kOperatorProcess, 2));
  EXPECT_FALSE(injector.Decide(FaultPoint::kOperatorProcess, 2));  // max 1
}

TopologySpec PassThroughSpec() {
  TopologySpec spec;
  StageSpec stage;
  stage.name = "pass";
  stage.parallelism = 1;
  stage.is_sink = true;
  stage.factory = [](int) {
    return std::make_unique<FilterOperator>([](const Row&) { return true; });
  };
  const int s = spec.AddStage(std::move(stage));
  spec.AddExternalInput({"in", s, 0, Partitioning::kHash});
  return spec;
}

// Satellite (b): an injected operator crash poisons the runner — pushes
// return false instead of blocking, FinishAndWait/Failure surface the
// task's failure Status, and Failed() flips.
TEST(RunnerPoisonTest, InjectedThrowPoisonsInsteadOfHanging) {
  FaultInjector injector(3);
  FaultInjector::Rule crash;
  crash.point = FaultPoint::kOperatorProcess;
  crash.action = FaultAction::kThrow;
  crash.after_hits = 3;
  injector.AddRule(crash);
  fault::ScopedFaultInjection scoped(&injector);

  ThreadedRunner runner(PassThroughSpec(), [](int, int, const SinkOutput&) {},
                        nullptr, 16);
  ASSERT_TRUE(runner.Start().ok());
  // Push until the poison propagates back as a refused push.
  bool refused = false;
  for (int i = 0; i < 2000 && !refused; ++i) {
    refused = !runner.Push(0, StreamElement::MakeRecord(i, Row{i, i}));
    if (!refused) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  EXPECT_TRUE(refused);
  EXPECT_TRUE(runner.Failed());
  runner.FinishAndWait();  // must not hang on a poisoned runner
  const Status failure = runner.Failure();
  EXPECT_FALSE(failure.ok());
  EXPECT_NE(failure.message().find("pass"), std::string::npos)
      << failure.ToString();
  EXPECT_EQ(injector.fires(FaultPoint::kOperatorProcess), 1);
}

TEST(RunnerPoisonTest, DeclareFailedMatchesTaskFailurePath) {
  ThreadedRunner runner(PassThroughSpec(), [](int, int, const SinkOutput&) {},
                        nullptr, 16);
  ASSERT_TRUE(runner.Start().ok());
  EXPECT_FALSE(runner.Failed());
  runner.DeclareFailed(Status::Aborted("watchdog: task stalled"));
  EXPECT_TRUE(runner.Failed());
  EXPECT_FALSE(runner.Push(0, StreamElement::MakeRecord(1, Row{1, 1})));
  runner.FinishAndWait();
  EXPECT_FALSE(runner.Failure().ok());
}

TEST(SupervisorTest, RetriesWithBackoffThenRecovers) {
  Supervisor::Options options;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 4;
  options.max_restart_attempts = 8;
  int calls = 0;
  int recovered_attempts = 0;
  int64_t recovered_latency = -1;
  Supervisor::Hooks hooks;
  hooks.recover = [&](int attempt) {
    ++calls;
    EXPECT_EQ(attempt, calls - 1);  // zero-based attempt index
    return calls < 3 ? Status::Aborted("still broken") : Status::OK();
  };
  hooks.on_recovered = [&](int attempts, int64_t latency_ms) {
    recovered_attempts = attempts;
    recovered_latency = latency_ms;
  };
  Supervisor supervisor(options, hooks);
  EXPECT_TRUE(supervisor.RecoverNow(Status::Aborted("crash")).ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(recovered_attempts, 3);
  EXPECT_GE(recovered_latency, 0);
  EXPECT_EQ(supervisor.recoveries(), 1);
  EXPECT_TRUE(supervisor.terminal().ok());
}

TEST(SupervisorTest, ExhaustedAttemptsAreTerminal) {
  Supervisor::Options options;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 2;
  options.max_restart_attempts = 3;
  int calls = 0;
  Status terminal_seen;
  Supervisor::Hooks hooks;
  hooks.recover = [&](int) {
    ++calls;
    return Status::Aborted("permanently broken");
  };
  hooks.on_terminal = [&](const Status& s) { terminal_seen = s; };
  Supervisor supervisor(options, hooks);
  EXPECT_FALSE(supervisor.RecoverNow(Status::Aborted("crash")).ok());
  EXPECT_EQ(calls, 3);
  EXPECT_FALSE(supervisor.terminal().ok());
  EXPECT_FALSE(terminal_seen.ok());
  // Terminal is sticky: no further recovery attempts are made.
  EXPECT_FALSE(supervisor.RecoverNow(Status::Aborted("again")).ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(supervisor.recoveries(), 0);
}

TEST(SupervisorTest, WatchdogTicks) {
  Supervisor::Options options;
  options.poll_interval_ms = 1;
  std::atomic<int> ticks{0};
  Supervisor::Hooks hooks;
  hooks.tick = [&] { ticks.fetch_add(1); };
  Supervisor supervisor(options, hooks);
  supervisor.StartWatchdog();
  for (int i = 0; i < 500 && ticks.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  supervisor.StopWatchdog();
  EXPECT_GE(ticks.load(), 3);
}

TEST(StallDetectorTest, FrozenTaskWithBacklogIsStalled) {
  StallDetector detector(50);
  std::vector<ThreadedRunner::TaskHealthSample> samples(1);
  samples[0].stage = 0;
  samples[0].instance = 0;
  samples[0].iterations = 10;
  samples[0].queued = 4;
  EXPECT_TRUE(detector.Observe(samples, 1000).ok());  // first sighting
  EXPECT_TRUE(detector.Observe(samples, 1040).ok());  // within timeout
  EXPECT_FALSE(detector.Observe(samples, 1051).ok());  // frozen past timeout
}

TEST(StallDetectorTest, ProgressOrDrainedQueueResetsTheClock) {
  StallDetector detector(50);
  std::vector<ThreadedRunner::TaskHealthSample> samples(1);
  samples[0].iterations = 10;
  samples[0].queued = 4;
  EXPECT_TRUE(detector.Observe(samples, 1000).ok());
  samples[0].iterations = 11;  // progress
  EXPECT_TRUE(detector.Observe(samples, 1060).ok());
  EXPECT_TRUE(detector.Observe(samples, 1100).ok());
  samples[0].queued = 0;  // idle task, frozen counter: not a stall
  EXPECT_TRUE(detector.Observe(samples, 1300).ok());
  samples[0].queued = 4;
  EXPECT_TRUE(detector.Observe(samples, 1301).ok());
  EXPECT_FALSE(detector.Observe(samples, 1360).ok());
  detector.Reset();  // after a restart the history is gone
  EXPECT_TRUE(detector.Observe(samples, 1400).ok());
}

// Satellite (a): the store keeps only the newest K completed checkpoints
// (plus in-flight ones) and LatestComplete always points at the newest.
TEST(CheckpointRetentionTest, PrunesOldCompletedKeepsInFlight) {
  CheckpointStore store;
  store.SetRetention(2);
  auto complete = [&](int64_t id) {
    store.BeginCheckpoint(id, {{0, id * 10}});
    store.AddOperatorState(id, 0, 0, {1, 2, 3});
    store.MaybeComplete(id, 1);
  };
  complete(1);
  complete(2);
  complete(3);
  complete(4);
  store.BeginCheckpoint(5, {{0, 50}});  // in-flight, never pruned
  EXPECT_EQ(store.NumRetained(), 3u);   // {3, 4} completed + {5} in-flight
  EXPECT_EQ(store.Get(1), nullptr);
  EXPECT_EQ(store.Get(2), nullptr);
  ASSERT_NE(store.Get(3), nullptr);
  ASSERT_NE(store.LatestComplete(), nullptr);
  EXPECT_EQ(store.LatestComplete()->id, 4);
  EXPECT_EQ(store.Get(5)->complete, false);
}

TEST(CheckpointRetentionTest, OutstandingReadersKeepPrunedSnapshotsAlive) {
  CheckpointStore store;
  store.SetRetention(1);
  store.BeginCheckpoint(1, {{0, 5}});
  store.AddOperatorState(1, 0, 0, {9});
  store.MaybeComplete(1, 1);
  std::shared_ptr<const CheckpointStore::Checkpoint> held = store.Get(1);
  ASSERT_NE(held, nullptr);
  store.BeginCheckpoint(2, {{0, 9}});
  store.AddOperatorState(2, 0, 0, {8});
  store.MaybeComplete(2, 1);
  EXPECT_EQ(store.Get(1), nullptr);  // pruned from the store...
  EXPECT_EQ(held->id, 1);            // ...but still readable mid-restore
  EXPECT_EQ(held->operator_state.at(CheckpointStore::StateKey(0, 0)),
            (std::vector<uint8_t>{9}));
}

TEST(CheckpointRetentionTest, BeginOverwritesStaleInFlightEntry) {
  // Replay re-triggers a checkpoint that was in flight at crash time; the
  // fresh BeginCheckpoint must discard the stale partial states.
  CheckpointStore store;
  store.BeginCheckpoint(7, {{0, 100}});
  store.AddOperatorState(7, 0, 0, {1});
  store.BeginCheckpoint(7, {{0, 100}});
  store.AddOperatorState(7, 0, 0, {2});
  store.MaybeComplete(7, 1);
  ASSERT_NE(store.LatestComplete(), nullptr);
  EXPECT_EQ(store.LatestComplete()->operator_state.at(
                CheckpointStore::StateKey(0, 0)),
            (std::vector<uint8_t>{2}));
}

}  // namespace
}  // namespace astream::spe
