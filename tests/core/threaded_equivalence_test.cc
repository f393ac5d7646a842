// The threaded runner must produce exactly the same per-query result
// multisets as the deterministic sync runner for the same scripted input
// — thread scheduling may reorder execution but never change results
// (everything is keyed by event time).

#include <gtest/gtest.h>

#include <map>
#include <mutex>

#include "common/rng.h"
#include "core/astream.h"
#include "harness/reference.h"

namespace astream::core {
namespace {

using harness::RowMultiset;
using spe::Row;
using Kind = AStreamJob::TopologyKind;

struct Script {
  struct Step {
    enum { kPush, kWatermark, kSubmit, kCancelFirst } what;
    TimestampMs time;
    Row row;
    QueryDescriptor desc;
    int stream = 0;  // kPush
  };
  std::vector<Step> steps;
};

Script MakeScript(Kind kind, uint64_t seed) {
  Rng rng(seed);
  Script script;
  // A couple of queries up front, one mid-stream, one deletion.
  auto make_query = [&](TimestampMs t) {
    QueryDescriptor d;
    if (kind == Kind::kAggregation) {
      d.kind = QueryKind::kAggregation;
      d.window = spe::WindowSpec::Sliding(
          rng.UniformInt(40, 120), rng.UniformInt(20, 40));
      d.agg = {spe::AggKind::kSum, 1};
    } else {
      d.kind = QueryKind::kJoin;
      d.window = spe::WindowSpec::Sliding(
          rng.UniformInt(40, 120), rng.UniformInt(20, 40));
    }
    d.select_a = {Predicate{1, CmpOp::kLt, rng.UniformInt(30, 90)}};
    return Script::Step{Script::Step::kSubmit, t, {}, d};
  };
  script.steps.push_back(make_query(0));
  script.steps.push_back(make_query(0));
  TimestampMs t = 1;
  for (int i = 0; i < 400; ++i) {
    t += rng.UniformInt(1, 4);
    Row row{rng.UniformInt(0, 6), rng.UniformInt(0, 99)};
    if (kind != Kind::kAggregation && rng.Bernoulli(0.5)) {
      script.steps.push_back({Script::Step::kPush, t, row, {}, 1});
    } else {
      script.steps.push_back({Script::Step::kPush, t, row, {}, 0});
    }
    if (i == 150) script.steps.push_back(make_query(t));
    if (i == 250) {
      script.steps.push_back({Script::Step::kCancelFirst, t, {}, {}});
    }
    if (i % 20 == 19) {
      script.steps.push_back({Script::Step::kWatermark, t, {}, {}});
    }
  }
  return script;
}

std::map<QueryId, RowMultiset> RunScript(const Script& script, Kind kind,
                                         bool threaded, int parallelism,
                                         size_t batch_size = 1,
                                         bool use_spsc_rings = true) {
  ManualClock clock;
  AStreamJob::Options options;
  options.topology = kind;
  options.parallelism = parallelism;
  options.threaded = threaded;
  options.clock = &clock;
  options.session.batch_size = 1;
  options.batch_size = batch_size;
  options.use_spsc_rings = use_spsc_rings;
  auto job = std::move(AStreamJob::Create(options)).value();
  EXPECT_TRUE(job->Start().ok());

  std::mutex mutex;
  std::map<QueryId, RowMultiset> outputs;
  job->SetResultCallback([&](QueryId id, const spe::Record& record) {
    std::lock_guard<std::mutex> lock(mutex);
    harness::AddToMultiset(&outputs[id], record.event_time, record.row);
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
      case Script::Step::kCancelFirst:
        EXPECT_TRUE(job->Cancel(ids.front()).ok());
        job->Pump(true);
        break;
    }
  }
  job->FinishAndWait();
  std::lock_guard<std::mutex> lock(mutex);
  return outputs;
}

class ThreadedEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ThreadedEquivalence, AggregationTopology) {
  const auto [seed, par] = GetParam();
  const Script script = MakeScript(Kind::kAggregation, seed);
  const auto sync = RunScript(script, Kind::kAggregation, false, par);
  const auto threaded = RunScript(script, Kind::kAggregation, true, par);
  EXPECT_EQ(sync, threaded);
  // And it actually produced something.
  int64_t total = 0;
  for (const auto& [id, rows] : sync) {
    for (const auto& [row, n] : rows) total += n;
  }
  EXPECT_GT(total, 0);
}

TEST_P(ThreadedEquivalence, JoinTopology) {
  const auto [seed, par] = GetParam();
  const Script script = MakeScript(Kind::kJoin, seed);
  const auto sync = RunScript(script, Kind::kJoin, false, par);
  const auto threaded = RunScript(script, Kind::kJoin, true, par);
  EXPECT_EQ(sync, threaded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadedEquivalence,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 3)));

// The batched data plane must be invisible in the results: for any batch
// size, sync and threaded runs produce the per-query outputs of the
// element-at-a-time sync run — including across mid-stream Submit/Cancel
// (changelog markers are batch boundaries).
class BatchedEquivalence
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(BatchedEquivalence, AggregationTopology) {
  const auto [par, batch] = GetParam();
  const Script script = MakeScript(Kind::kAggregation, /*seed=*/7);
  const auto reference =
      RunScript(script, Kind::kAggregation, /*threaded=*/false, par);
  const auto sync_batched =
      RunScript(script, Kind::kAggregation, /*threaded=*/false, par, batch);
  const auto threaded_batched =
      RunScript(script, Kind::kAggregation, /*threaded=*/true, par, batch);
  EXPECT_EQ(reference, sync_batched);
  EXPECT_EQ(reference, threaded_batched);
  int64_t total = 0;
  for (const auto& [id, rows] : reference) {
    for (const auto& [row, n] : rows) total += n;
  }
  EXPECT_GT(total, 0);
}

TEST_P(BatchedEquivalence, JoinTopology) {
  const auto [par, batch] = GetParam();
  const Script script = MakeScript(Kind::kJoin, /*seed=*/7);
  const auto reference =
      RunScript(script, Kind::kJoin, /*threaded=*/false, par);
  const auto sync_batched =
      RunScript(script, Kind::kJoin, /*threaded=*/false, par, batch);
  const auto threaded_batched =
      RunScript(script, Kind::kJoin, /*threaded=*/true, par, batch);
  EXPECT_EQ(reference, sync_batched);
  EXPECT_EQ(reference, threaded_batched);
}

INSTANTIATE_TEST_SUITE_P(
    BatchSizes, BatchedEquivalence,
    ::testing::Combine(::testing::Values(1, 3),
                       ::testing::Values(size_t{1}, size_t{7},
                                         size_t{64})));

// The channel implementation must be invisible too: SPSC rings on internal
// edges vs. the mutex MPMC channel everywhere produce identical per-query
// outputs — with batching and CoW rows active, and across the script's
// mid-stream Submit/Cancel (per-(port,sender) FIFO keeps control elements
// aligned with records on either channel kind).
class RingEquivalence
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(RingEquivalence, AggregationTopology) {
  const auto [par, batch] = GetParam();
  const Script script = MakeScript(Kind::kAggregation, /*seed=*/11);
  const auto reference =
      RunScript(script, Kind::kAggregation, /*threaded=*/false, par);
  const auto with_rings = RunScript(script, Kind::kAggregation,
                                    /*threaded=*/true, par, batch,
                                    /*use_spsc_rings=*/true);
  const auto without_rings = RunScript(script, Kind::kAggregation,
                                       /*threaded=*/true, par, batch,
                                       /*use_spsc_rings=*/false);
  EXPECT_EQ(reference, with_rings);
  EXPECT_EQ(reference, without_rings);
  int64_t total = 0;
  for (const auto& [id, rows] : reference) {
    for (const auto& [row, n] : rows) total += n;
  }
  EXPECT_GT(total, 0);
}

TEST_P(RingEquivalence, JoinTopology) {
  const auto [par, batch] = GetParam();
  const Script script = MakeScript(Kind::kJoin, /*seed=*/11);
  const auto reference =
      RunScript(script, Kind::kJoin, /*threaded=*/false, par);
  const auto with_rings =
      RunScript(script, Kind::kJoin, /*threaded=*/true, par, batch,
                /*use_spsc_rings=*/true);
  const auto without_rings =
      RunScript(script, Kind::kJoin, /*threaded=*/true, par, batch,
                /*use_spsc_rings=*/false);
  EXPECT_EQ(reference, with_rings);
  EXPECT_EQ(reference, without_rings);
}

INSTANTIATE_TEST_SUITE_P(
    Rings, RingEquivalence,
    ::testing::Combine(::testing::Values(1, 3),
                       ::testing::Values(size_t{1}, size_t{16})));

}  // namespace
}  // namespace astream::core
