// Sharded scale-out equivalence: for every shard count, router mode and
// resharding/chaos schedule, the merged per-query output multisets of a
// Client-driven deployment must be byte-identical to a single fault-free
// sync AStreamJob running the same script — including across a live
// split/move and a shard killed and recovered mid-run.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/astream.h"
#include "core/query_builder.h"
#include "harness/reference.h"
#include "shard/client.h"

namespace astream::shard {
namespace {

using core::AStreamJob;
using core::CmpOp;
using core::Predicate;
using core::QueryDescriptor;
using core::QueryId;
using core::QueryKind;
using harness::AddToMultiset;
using harness::RowMultiset;
using spe::Row;

struct Script {
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

// ~600 tuples over keys 0..6 on two streams, with ad-hoc selection and
// join submits, cancels, periodic watermarks and checkpoints — the same
// churn shape as the core chaos suite, driven through the sharded client.
Script MakeScript() {
  Rng rng(0x5A4DE);
  Script script;
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
    Script::Step s;
    s.what = Script::Step::kSubmit;
    s.time = t;
    s.desc = d;
    script.steps.push_back(std::move(s));
    ++script.num_submits;
  };
  auto cancel = [&](TimestampMs t, int index) {
    Script::Step s;
    s.what = Script::Step::kCancel;
    s.time = t;
    s.cancel_index = index;
    script.steps.push_back(std::move(s));
    ++script.num_cancels;
  };
  submit(0, false);
  submit(0, true);
  submit(0, false);
  TimestampMs t = 1;
  for (int i = 0; i < 600; ++i) {
    t += rng.UniformInt(1, 3);
    Script::Step s;
    s.time = t;
    s.row = Row{rng.UniformInt(0, 6), rng.UniformInt(0, 99)};
    s.stream = rng.Bernoulli(0.5) ? 1 : 0;
    script.steps.push_back(std::move(s));
    if (i == 90 || i == 210 || i == 330 || i == 450 || i == 540) {
      submit(t, i % 180 == 90);
    }
    if (i == 240) cancel(t, 0);
    if (i == 480) cancel(t, 3);
    if (i % 20 == 19) {
      Script::Step wm;
      wm.what = Script::Step::kWatermark;
      wm.time = t;
      script.steps.push_back(std::move(wm));
    }
    if (i % 80 == 79) {
      Script::Step cp;
      cp.what = Script::Step::kCheckpoint;
      cp.time = t;
      script.steps.push_back(std::move(cp));
    }
  }
  return script;
}

// The same churn shape over three streams for a kMultiway deployment:
// selections on stream 0 and n-ary joins over two or three legs, ~600
// tuples spread over the streams.
Script MakeMultiwayScript() {
  Rng rng(0x3A57);
  Script script;
  auto submit = [&](TimestampMs t, int shape) {
    QueryDescriptor d;
    if (shape == 0) {
      d.kind = QueryKind::kSelection;
      d.select_a = {Predicate{1, CmpOp::kGt, rng.UniformInt(10, 60)}};
    } else {
      auto b = core::QueryBuilder::MultiwayJoin();
      b.Input(0).Input(shape == 1 ? 1 : 2);
      if (shape == 3) b.Input(1);
      b.WhereStream(0, 1, CmpOp::kLt, rng.UniformInt(40, 95))
          .SlidingWindow(rng.UniformInt(40, 120), rng.UniformInt(20, 40));
      d = *b.Build();
    }
    Script::Step s;
    s.what = Script::Step::kSubmit;
    s.time = t;
    s.desc = d;
    script.steps.push_back(std::move(s));
    ++script.num_submits;
  };
  submit(0, 3);
  submit(0, 0);
  submit(0, 1);
  TimestampMs t = 1;
  for (int i = 0; i < 600; ++i) {
    t += rng.UniformInt(1, 3);
    Script::Step s;
    s.time = t;
    s.row = Row{rng.UniformInt(0, 6), rng.UniformInt(0, 99)};
    s.stream = static_cast<int>(rng.UniformInt(0, 2));
    script.steps.push_back(std::move(s));
    if (i == 100 || i == 250 || i == 400) submit(t, 1 + i / 100 % 3);
    if (i == 300 || i == 500) {
      Script::Step c;
      c.what = Script::Step::kCancel;
      c.time = t;
      c.cancel_index = i == 300 ? 0 : 3;
      script.steps.push_back(std::move(c));
      ++script.num_cancels;
    }
    if (i % 20 == 19) {
      Script::Step wm;
      wm.what = Script::Step::kWatermark;
      wm.time = t;
      script.steps.push_back(std::move(wm));
    }
    if (i % 80 == 79) {
      Script::Step cp;
      cp.what = Script::Step::kCheckpoint;
      cp.time = t;
      script.steps.push_back(std::move(cp));
    }
  }
  return script;
}

JobConfig BaseConfig(ManualClock* clock) {
  JobConfig config;
  config.job.topology = AStreamJob::TopologyKind::kJoin;
  config.job.parallelism = 1;
  config.job.clock = clock;
  config.job.session.batch_size = 1;
  config.slots = 8;
  config.ingress_capacity = 256;
  return config;
}

JobConfig MultiwayConfig(ManualClock* clock) {
  JobConfig config = BaseConfig(clock);
  config.job.topology = AStreamJob::TopologyKind::kMultiway;
  config.job.num_streams = 3;
  return config;
}

// Fault-free oracle: the deterministic sync runner on one plain job.
std::map<QueryId, RowMultiset> RunReference(
    const Script& script, JobConfig (*base)(ManualClock*) = BaseConfig) {
  ManualClock clock;
  AStreamJob::Options options = base(&clock).job;
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
      case Script::Step::kPush:
        job->Push(step.stream, step.time, step.row);
        break;
      case Script::Step::kWatermark:
        job->PushWatermark(step.time);
        break;
      case Script::Step::kSubmit: {
        auto id = job->Submit(step.desc);
        EXPECT_TRUE(id.ok());
        ids.push_back(*id);
        job->Pump(true);
        break;
      }
      case Script::Step::kCancel:
        EXPECT_TRUE(job->Cancel(ids[step.cancel_index]).ok());
        job->Pump(true);
        break;
      case Script::Step::kCheckpoint:
        job->TriggerCheckpoint();
        break;
    }
  }
  EXPECT_TRUE(job->FinishAndWait().ok());
  return outputs;
}

// Events injected at specific script-step indices while a client run is
// in flight: live resharding and shard kills.
struct RunPlan {
  int split_shard = -1;
  int split_at = -1;
  int move_shard = -1;
  int move_at = -1;
  std::vector<int> kill_at;  // step indices; kills target kill_shard
  int kill_shard = 1;
  // Called before every step with the step index.
  std::function<void(int, astream::Client*)> observe;
};

struct RunOutcome {
  std::map<QueryId, RowMultiset> outputs;
  int final_shards = 0;
  int64_t reshard_pause_ms = -1;
  int64_t recoveries = 0;
  int64_t spills = 0;  // summed over shards
  Status health = Status::OK();
};

RunOutcome RunClient(const Script& script, JobConfig config,
                     const RunPlan& plan = {}) {
  ManualClock* clock = nullptr;
  {
    // The config's clock is always a ManualClock in these tests.
    clock = static_cast<ManualClock*>(config.job.clock);
  }
  RunOutcome outcome;
  auto created = astream::Client::Create(std::move(config));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  if (!created.ok()) return outcome;
  std::unique_ptr<astream::Client> client = std::move(created).value();
  EXPECT_TRUE(client->Start().ok());
  std::mutex mutex;
  client->SetResultCallback([&](QueryId id, const spe::Record& record) {
    std::lock_guard<std::mutex> lock(mutex);
    AddToMultiset(&outcome.outputs[id], record.event_time, record.row);
  });
  std::vector<QueryId> ids;
  for (size_t i = 0; i < script.steps.size(); ++i) {
    const Script::Step& step = script.steps[i];
    clock->SetMs(step.time);
    const int idx = static_cast<int>(i);
    if (plan.observe) plan.observe(idx, client.get());
    for (int kill : plan.kill_at) {
      if (kill == idx) {
        EXPECT_TRUE(client->router()
                        ->KillShard(plan.kill_shard,
                                    Status::Internal("injected shard crash"))
                        .ok());
      }
    }
    if (plan.split_at == idx) {
      const Status s = client->SplitShard(plan.split_shard);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    if (plan.move_at == idx) {
      const Status s = client->MoveShard(plan.move_shard);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    switch (step.what) {
      case Script::Step::kPush:
        client->Push(static_cast<StreamId>(step.stream), step.time, step.row);
        break;
      case Script::Step::kWatermark:
        client->PushWatermark(step.time);
        break;
      case Script::Step::kSubmit: {
        auto id = client->Submit(step.desc);
        EXPECT_TRUE(id.ok()) << id.status().ToString();
        if (!id.ok()) return outcome;
        ids.push_back(*id);
        client->Pump(true);
        break;
      }
      case Script::Step::kCancel: {
        const Status s = client->Cancel(ids[step.cancel_index]);
        EXPECT_TRUE(s.ok()) << s.ToString();
        client->Pump(true);
        break;
      }
      case Script::Step::kCheckpoint: {
        const Status s = client->Checkpoint();
        EXPECT_TRUE(s.ok()) << s.ToString();
        break;
      }
    }
  }
  outcome.health = client->Health();
  EXPECT_TRUE(client->FinishAndWait().ok());
  outcome.final_shards = client->num_shards();
  outcome.reshard_pause_ms = client->last_reshard_pause_ms();
  for (int s = 0; s < client->router()->num_shards(); ++s) {
    auto* supervised = client->router()->shard(s)->supervised();
    if (supervised != nullptr) outcome.recoveries += supervised->recoveries();
  }
  const auto metrics = client->MetricsSnapshot();
  const auto spill_ms = metrics.histograms.find("storage.spill_ms");
  if (spill_ms != metrics.histograms.end()) {
    outcome.spills = spill_ms->second.count;
  }
  return outcome;
}

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

// --- Shard-count equivalence: inline (deterministic) router. -------------

class ShardCountEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardCountEquivalenceTest, MergedOutputsMatchSingleJobReference) {
  const Script script = MakeScript();
  ASSERT_GE(script.num_submits, 7);
  ASSERT_GE(script.num_cancels, 2);
  const auto reference = RunReference(script);
  ASSERT_FALSE(reference.empty());

  ManualClock clock;
  JobConfig config = BaseConfig(&clock);
  config.shards = GetParam();
  const RunOutcome run = RunClient(script, std::move(config));

  EXPECT_TRUE(run.health.ok()) << run.health.ToString();
  EXPECT_EQ(run.final_shards, GetParam());
  EXPECT_EQ(reference.size(), run.outputs.size());
  EXPECT_EQ(reference, run.outputs);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardCountEquivalenceTest,
                         ::testing::Values(1, 2, 4));

// --- Threaded router: per-shard SPSC ingress rings + pump threads. -------

TEST(ShardEquivalenceTest, ThreadedRouterMatchesReference) {
  const Script script = MakeScript();
  const auto reference = RunReference(script);

  ManualClock clock;
  JobConfig config = BaseConfig(&clock);
  config.shards = 4;
  config.shard_threads = true;
  const RunOutcome run = RunClient(script, std::move(config));

  EXPECT_TRUE(run.health.ok()) << run.health.ToString();
  EXPECT_EQ(reference, run.outputs);
}

// --- Budgeted shards sharing one explicit spill dir. ---------------------

// Every shard's engine numbers its run files from 0; each spills into a
// private subdirectory of the shared spill_dir, so no shard overwrites
// another's runs and the merged output still matches the reference.
TEST(ShardEquivalenceTest, BudgetedShardsShareOneSpillDir) {
  const Script script = MakeScript();
  const auto reference = RunReference(script);

  ManualClock clock;
  JobConfig config = BaseConfig(&clock);
  config.shards = 2;
  config.job.storage.memory_budget_bytes = 2 << 10;
  const std::string dir = FreshDir("astream_shard_spill_test");
  config.job.storage.spill_dir = dir;
  // While runs are live, each engine's private directory holds its one
  // segment file and nothing else: no file per spilled run.
  int observed_live = 0;
  RunPlan plan;
  plan.observe = [&](int, astream::Client* client) {
    int engines = 0;
    for (const auto& engine : std::filesystem::directory_iterator(dir)) {
      ++engines;
      std::vector<std::string> files;
      for (const auto& f : std::filesystem::directory_iterator(engine)) {
        files.push_back(f.path().filename().string());
      }
      EXPECT_EQ(files, std::vector<std::string>{"segment"})
          << engine.path();
    }
    EXPECT_EQ(engines, 2);
    const auto gauges = client->MetricsSnapshot().gauges;
    const auto runs = gauges.find("storage.runs");
    if (runs != gauges.end() && runs->second > 0) ++observed_live;
  };
  const RunOutcome run = RunClient(script, std::move(config), plan);

  EXPECT_TRUE(run.health.ok()) << run.health.ToString();
  EXPECT_GT(run.spills, 0);
  EXPECT_GT(observed_live, 0);
  EXPECT_EQ(reference, run.outputs);
  // The private subdirectories went with their engines.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

// --- Live resharding. ----------------------------------------------------

// A split mid-run through the durable hand-off path: shard 0 drains to a
// run-file checkpoint, both halves restore the full state, and the
// ownership filter keeps the merged output byte-identical.
TEST(ShardEquivalenceTest, LiveSplitWithDurableHandoffMatchesReference) {
  const Script script = MakeScript();
  const auto reference = RunReference(script);

  ManualClock clock;
  JobConfig config = BaseConfig(&clock);
  config.shards = 2;
  config.supervised = true;
  config.state_dir = FreshDir("astream_shard_split_test");
  config.supervisor.backoff_initial_ms = 1;
  config.supervisor.backoff_max_ms = 8;
  config.pin_clock = [&clock](TimestampMs ms) { clock.SetMs(ms); };
  RunPlan plan;
  plan.split_shard = 0;
  plan.split_at = static_cast<int>(script.steps.size()) / 2;
  const RunOutcome run = RunClient(script, std::move(config), plan);

  EXPECT_TRUE(run.health.ok()) << run.health.ToString();
  EXPECT_EQ(run.final_shards, 3);
  EXPECT_GE(run.reshard_pause_ms, 0);
  EXPECT_EQ(reference, run.outputs);
}

// A move mid-run through the in-memory hand-off path (plain shards): the
// shard is drained, rebuilt at a new generation from its checkpoint, and
// the run continues unchanged.
TEST(ShardEquivalenceTest, LiveMoveMatchesReference) {
  const Script script = MakeScript();
  const auto reference = RunReference(script);

  ManualClock clock;
  JobConfig config = BaseConfig(&clock);
  config.shards = 2;
  RunPlan plan;
  plan.move_shard = 1;
  plan.move_at = static_cast<int>(script.steps.size()) / 3;
  const RunOutcome run = RunClient(script, std::move(config), plan);

  EXPECT_TRUE(run.health.ok()) << run.health.ToString();
  EXPECT_EQ(run.final_shards, 2);
  EXPECT_GE(run.reshard_pause_ms, 0);
  EXPECT_EQ(reference, run.outputs);
}

// --- Chaos: kill one shard mid-run, exactly-once still holds. ------------

class ShardKillChaosTest : public ::testing::TestWithParam<uint64_t> {};

// Supervised threaded-engine shards behind the inline router: shard 1 is
// killed at three seed-shifted points; each kill is recovered by replay
// from the durable checkpoint + source log, and the merged output is
// still byte-identical to the fault-free single-job sync reference.
TEST_P(ShardKillChaosTest, KilledShardRecoversExactlyOnce) {
  const uint64_t seed = GetParam();
  const Script script = MakeScript();
  const auto reference = RunReference(script);

  ManualClock clock;
  JobConfig config = BaseConfig(&clock);
  config.shards = 2;
  config.job.threaded = true;  // kills require an async engine
  config.supervised = true;
  config.state_dir =
      FreshDir("astream_shard_kill_test_" + std::to_string(seed));
  config.supervisor.backoff_initial_ms = 1;
  config.supervisor.backoff_max_ms = 8;
  config.pin_clock = [&clock](TimestampMs ms) { clock.SetMs(ms); };
  RunPlan plan;
  plan.kill_shard = 1;
  const int shift = static_cast<int>(seed) * 37;
  plan.kill_at = {120 + shift, 320 + shift, 520 + shift};
  const RunOutcome run = RunClient(script, std::move(config), plan);

  EXPECT_TRUE(run.health.ok()) << run.health.ToString();
  EXPECT_GE(run.recoveries, 3);
  EXPECT_EQ(reference.size(), run.outputs.size());
  EXPECT_EQ(reference, run.outputs);
}

// The full stack at once — threaded router (SPSC ingress + pump threads),
// threaded engines, supervised shards, durable state — with shard 1
// killed right before checkpoint barriers, and a live split later in the
// run. Output must still match the sync reference byte-for-byte.
TEST_P(ShardKillChaosTest, FullStackKillAndSplitExactlyOnce) {
  const uint64_t seed = GetParam();
  const Script script = MakeScript();
  const auto reference = RunReference(script);

  // Kill at checkpoint steps: the kill quiesces all rings first, so the
  // immediately following checkpoint fan-out performs the recovery on the
  // control thread, keeping wall stamps deterministic even with pump
  // threads running.
  std::vector<int> checkpoint_steps;
  for (size_t i = 0; i < script.steps.size(); ++i) {
    if (script.steps[i].what == Script::Step::kCheckpoint) {
      checkpoint_steps.push_back(static_cast<int>(i));
    }
  }
  ASSERT_GE(checkpoint_steps.size(), 4u);

  ManualClock clock;
  JobConfig config = BaseConfig(&clock);
  config.shards = 2;
  config.shard_threads = true;
  config.job.threaded = true;
  config.supervised = true;
  config.state_dir =
      FreshDir("astream_shard_fullstack_test_" + std::to_string(seed));
  config.supervisor.backoff_initial_ms = 1;
  config.supervisor.backoff_max_ms = 8;
  config.pin_clock = [&clock](TimestampMs ms) { clock.SetMs(ms); };
  RunPlan plan;
  plan.kill_shard = 1;
  plan.kill_at = {checkpoint_steps[seed % 2],
                  checkpoint_steps[2 + seed % 2]};
  plan.split_shard = 0;
  plan.split_at = checkpoint_steps[3] + 1;
  const RunOutcome run = RunClient(script, std::move(config), plan);

  EXPECT_TRUE(run.health.ok()) << run.health.ToString();
  EXPECT_GE(run.recoveries, 2);
  EXPECT_EQ(run.final_shards, 3);
  EXPECT_EQ(reference.size(), run.outputs.size());
  EXPECT_EQ(reference, run.outputs);
}

// Supervised shards of a three-stream multiway deployment: each shard's
// source log records and replays every stream, so shard 1 killed twice
// mid-churn recovers exactly once like the two-stream topologies do.
TEST_P(ShardKillChaosTest, SupervisedMultiwayKilledShardRecoversExactlyOnce) {
  const uint64_t seed = GetParam();
  const Script script = MakeMultiwayScript();
  ASSERT_GE(script.num_submits, 6);
  ASSERT_GE(script.num_cancels, 2);
  const auto reference = RunReference(script, MultiwayConfig);
  ASSERT_FALSE(reference.empty());

  ManualClock clock;
  JobConfig config = MultiwayConfig(&clock);
  config.shards = 2;
  config.job.threaded = true;  // kills require an async engine
  config.supervised = true;
  config.state_dir =
      FreshDir("astream_shard_mjoin_kill_test_" + std::to_string(seed));
  config.supervisor.backoff_initial_ms = 1;
  config.supervisor.backoff_max_ms = 8;
  config.pin_clock = [&clock](TimestampMs ms) { clock.SetMs(ms); };
  ASSERT_TRUE(JobConfig::Validated(config).ok());
  RunPlan plan;
  plan.kill_shard = 1;
  const int shift = static_cast<int>(seed) * 41;
  plan.kill_at = {160 + shift, 430 + shift};
  const RunOutcome run = RunClient(script, std::move(config), plan);

  EXPECT_TRUE(run.health.ok()) << run.health.ToString();
  EXPECT_GE(run.recoveries, 2);
  EXPECT_EQ(reference.size(), run.outputs.size());
  EXPECT_EQ(reference, run.outputs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardKillChaosTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace astream::shard
