// The router runs chained onto the tasks that feed it (DESIGN.md §3.2b):
// each stream-0 selection instance owns a port-0 router replica, each
// windowed instance a port-1 replica, and results reach the callback on
// those task threads. Threaded jobs must still return the sync reference's
// outputs, a changelog counts as deployed only once every replica applied
// it, and an aggregation job runs two task threads per instance.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/astream.h"
#include "core/query_builder.h"
#include "harness/reference.h"

namespace astream::core {
namespace {

using harness::RowMultiset;
using spe::Row;
using Kind = AStreamJob::TopologyKind;

int StreamsOf(Kind kind) {
  switch (kind) {
    case Kind::kAggregation:
      return 1;
    case Kind::kMultiway:
      return 3;
    default:
      return 2;
  }
}

QueryDescriptor SelectionQuery(spe::Value below) {
  QueryDescriptor d;
  d.kind = QueryKind::kSelection;
  d.select_a = {Predicate{1, CmpOp::kLt, below}};
  return d;
}

QueryDescriptor WindowedQuery(Kind kind, Rng& rng) {
  const spe::WindowSpec window = spe::WindowSpec::Sliding(
      rng.UniformInt(40, 120), rng.UniformInt(20, 40));
  if (kind == Kind::kMultiway) {
    static const std::vector<int> kLegs[] = {{0, 1, 2}, {0, 2}, {2, 1}};
    auto b = QueryBuilder::MultiwayJoin();
    for (int s : kLegs[rng.UniformInt(0, 2)]) b.Input(s);
    b.Window(window);
    auto q = b.Build();
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }
  QueryDescriptor d;
  d.kind = kind == Kind::kJoin ? QueryKind::kJoin : QueryKind::kAggregation;
  d.window = window;
  if (kind == Kind::kAggregation) d.agg = {spe::AggKind::kSum, 1};
  d.select_a = {Predicate{1, CmpOp::kLt, rng.UniformInt(30, 90)}};
  return d;
}

/// Runs one scripted job: windowed and selection-only queries up front,
/// more of both mid-stream, and a cancel of each kind. Returns per-query
/// output multisets.
std::map<QueryId, RowMultiset> RunScript(Kind kind, bool threaded,
                                         uint64_t seed) {
  ManualClock clock;
  AStreamJob::Options options;
  options.topology = kind;
  if (kind == Kind::kMultiway) options.num_streams = StreamsOf(kind);
  options.parallelism = 2;
  options.threaded = threaded;
  options.clock = &clock;
  options.session.batch_size = 1;
  options.batch_size = 16;
  auto job = std::move(AStreamJob::Create(options)).value();
  EXPECT_TRUE(job->Start().ok());
  std::mutex mutex;
  std::map<QueryId, RowMultiset> outputs;
  job->SetResultCallback([&](QueryId id, const spe::Record& record) {
    std::lock_guard<std::mutex> lock(mutex);
    harness::AddToMultiset(&outputs[id], record.event_time, record.row);
  });

  Rng rng(seed);
  std::vector<QueryId> windowed;
  std::vector<QueryId> selections;
  auto submit = [&](const QueryDescriptor& desc, std::vector<QueryId>* ids) {
    auto id = job->Submit(desc);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids->push_back(*id);
    job->Pump(true);
  };
  clock.SetMs(0);
  submit(WindowedQuery(kind, rng), &windowed);
  submit(WindowedQuery(kind, rng), &windowed);
  submit(SelectionQuery(rng.UniformInt(20, 60)), &selections);
  TimestampMs t = 1;
  for (int i = 0; i < 400; ++i) {
    t += rng.UniformInt(1, 3);
    clock.SetMs(t);
    const int stream =
        static_cast<int>(rng.UniformInt(0, StreamsOf(kind) - 1));
    job->Push(stream, t, Row{rng.UniformInt(0, 6), rng.UniformInt(0, 99)});
    if (i == 100) submit(SelectionQuery(rng.UniformInt(40, 90)), &selections);
    if (i == 150) submit(WindowedQuery(kind, rng), &windowed);
    if (i == 220) {
      EXPECT_TRUE(job->Cancel(selections.front()).ok());
      job->Pump(true);
    }
    if (i == 260) {
      EXPECT_TRUE(job->Cancel(windowed.front()).ok());
      job->Pump(true);
    }
    if (i % 20 == 19) job->PushWatermark(t);
  }
  EXPECT_TRUE(job->FinishAndWait().ok());
  std::lock_guard<std::mutex> lock(mutex);
  // Both router paths delivered something.
  for (const std::vector<QueryId>* ids : {&windowed, &selections}) {
    int64_t rows = 0;
    for (QueryId id : *ids) {
      for (const auto& [row, n] : outputs[id]) rows += n;
    }
    EXPECT_GT(rows, 0);
  }
  return outputs;
}

class ChainedRouterJobTest : public ::testing::TestWithParam<Kind> {};

TEST_P(ChainedRouterJobTest, ThreadedMatchesSyncReference) {
  for (uint64_t seed : {5u, 6u}) {
    const auto reference = RunScript(GetParam(), /*threaded=*/false, seed);
    const auto threaded = RunScript(GetParam(), /*threaded=*/true, seed);
    EXPECT_EQ(reference, threaded) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ChainedRouterJobTest,
    ::testing::Values(Kind::kAggregation, Kind::kJoin, Kind::kMultiway),
    [](const ::testing::TestParamInfo<Kind>& info) {
      switch (info.param) {
        case Kind::kAggregation:
          return std::string("Aggregation");
        case Kind::kJoin:
          return std::string("Join");
        default:
          return std::string("Multiway");
      }
    });

// Selection and aggregation tasks only: the router has no thread.
TEST(ChainedRouterThreadsTest, AggregationJobRunsTwoTasksPerInstance) {
  for (int par : {1, 2}) {
    AStreamJob::Options options;
    options.parallelism = par;
    options.threaded = true;
    auto job = std::move(AStreamJob::Create(options)).value();
    ASSERT_TRUE(job->Start().ok());
    EXPECT_EQ(job->TaskHealth().size(), static_cast<size_t>(2 * par))
        << "parallelism " << par;
    EXPECT_TRUE(job->FinishAndWait().ok());
  }
}

/// Waits up to ten seconds for `flag`.
bool Await(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// The selection replica acks a changelog while the aggregation task is
// held inside the result callback: WaitForDeployment must not return until
// the windowed replica acked too.
TEST(ChainedRouterThreadsTest, WaitForDeploymentWaitsForEveryReplica) {
  ManualClock clock;
  AStreamJob::Options options;
  options.threaded = true;
  options.clock = &clock;
  options.session.batch_size = 1;
  auto job = std::move(AStreamJob::Create(options)).value();
  ASSERT_TRUE(job->Start().ok());

  QueryDescriptor agg;
  agg.kind = QueryKind::kAggregation;
  agg.window = spe::WindowSpec::Tumbling(10);
  agg.agg = {spe::AggKind::kSum, 1};
  clock.SetMs(0);
  const QueryId agg_id = *job->Submit(agg);
  job->Pump(true);

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<bool> held{false};
  std::atomic<bool> selection_seen{false};
  std::atomic<QueryId> selection_id{-1};
  job->SetResultCallback([&](QueryId id, const spe::Record&) {
    if (id == agg_id && !held.exchange(true)) opened.wait();
    if (id == selection_id.load()) selection_seen = true;
  });
  // Opens the gate however the test ends, so the task can be joined.
  struct OpenOnExit {
    std::promise<void>* gate;
    bool open = false;
    void Open() {
      if (!open) gate->set_value();
      open = true;
    }
    ~OpenOnExit() { Open(); }
  } guard{&gate};

  for (TimestampMs t = 1; t <= 5; ++t) {
    clock.SetMs(t);
    job->Push(0, t, Row{t, t});
  }
  job->PushWatermark(20);
  ASSERT_TRUE(Await(held));  // the aggregation task is now parked

  clock.SetMs(21);
  selection_id = *job->Submit(SelectionQuery(100));
  job->Pump(true);
  clock.SetMs(25);
  job->Push(0, 25, Row{1, 1});
  // The selection task applied the changelog before routing this tuple.
  ASSERT_TRUE(Await(selection_seen));
  EXPECT_FALSE(job->WaitForDeployment(50));
  EXPECT_EQ(job->qos().TakeSnapshot().deployment_latency.count(), 1);

  guard.Open();
  EXPECT_TRUE(job->WaitForDeployment(10'000));
  EXPECT_EQ(job->qos().TakeSnapshot().deployment_latency.count(), 2);
  EXPECT_TRUE(job->FinishAndWait().ok());
}

}  // namespace
}  // namespace astream::core
