// End-to-end checks of the per-query observability layer: the metric
// series recorded inside the shared operators must agree with what the
// router actually shipped, in both sync and threaded modes; the
// submit/push API must report lifecycle misuse as typed results.

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "core/astream.h"
#include "core/query_builder.h"
#include "obs/trace.h"

namespace astream::core {
namespace {

using spe::Row;
using Kind = AStreamJob::TopologyKind;

std::unique_ptr<AStreamJob> MakeJob(Kind kind, bool threaded,
                                    ManualClock* clock,
                                    bool enable_metrics = true,
                                    size_t batch_size = 1) {
  AStreamJob::Options options;
  options.topology = kind;
  options.parallelism = 2;
  options.threaded = threaded;
  options.batch_size = batch_size;
  options.clock = clock;
  options.session.batch_size = 1000;
  options.session.max_timeout_ms = 1 << 30;
  options.enable_metrics = enable_metrics;
  auto job = AStreamJob::Create(options);
  EXPECT_TRUE(job.ok()) << job.status().ToString();
  return std::move(job).value();
}

/// Streams a deterministic aggregation workload through `job` and returns
/// the per-query output counts observed at the result callback.
std::map<QueryId, int64_t> RunAggregationWorkload(AStreamJob* job,
                                                  ManualClock* clock,
                                                  std::vector<QueryId>* ids) {
  std::mutex mu;
  std::map<QueryId, int64_t> sink_counts;
  job->SetResultCallback([&](QueryId id, const spe::Record&) {
    std::lock_guard<std::mutex> lock(mu);
    ++sink_counts[id];
  });

  ids->push_back(*job->Submit(*QueryBuilder::Aggregation()
                                   .WhereA(1, CmpOp::kLt, 80)
                                   .SlidingWindow(100, 50)
                                   .Agg(spe::AggKind::kSum, 1)
                                   .Build()));
  ids->push_back(*job->Submit(*QueryBuilder::Aggregation()
                                   .TumblingWindow(60)
                                   .Agg(spe::AggKind::kCount, 1)
                                   .Build()));
  ids->push_back(*job->Submit(
      *QueryBuilder::Selection().WhereA(1, CmpOp::kLt, 30).Build()));
  job->Pump(true);
  EXPECT_TRUE(job->WaitForDeployment());

  Rng rng(17);
  TimestampMs t = 1;
  for (int i = 0; i < 600; ++i) {
    t += rng.UniformInt(1, 3);
    clock->SetMs(t);
    job->Push(0, t, Row{rng.UniformInt(0, 5), rng.UniformInt(0, 99)});
    if (i % 25 == 24) job->PushWatermark(t);
  }
  job->FinishAndWait();
  std::lock_guard<std::mutex> lock(mu);
  return sink_counts;
}

void CheckMetricsMatchRouter(bool threaded, size_t batch_size = 1) {
  ManualClock clock;
  auto job = MakeJob(Kind::kAggregation, threaded, &clock,
                     /*enable_metrics=*/true, batch_size);
  ASSERT_TRUE(job->Start().ok());
  std::vector<QueryId> ids;
  const auto sink_counts = RunAggregationWorkload(job.get(), &clock, &ids);

  const auto snap = job->MetricsSnapshot();
  for (QueryId id : ids) {
    ASSERT_EQ(snap.queries.count(id), 1u) << "query " << id;
    const auto& series = snap.queries.at(id);
    const auto it = sink_counts.find(id);
    const int64_t at_sink = it == sink_counts.end() ? 0 : it->second;
    // Router-side counter == records the sink callback saw == qos tally.
    EXPECT_EQ(series.records_emitted, at_sink) << "query " << id;
    EXPECT_EQ(series.records_emitted, job->qos().OutputsOf(id))
        << "query " << id;
    // Every emitted record passed through the event-latency histogram.
    EXPECT_EQ(series.event_latency_ms.count, series.records_emitted);
    // Exactly one deployment (the create) was acked for each query.
    EXPECT_EQ(series.deploy_latency_ms.count, 1) << "query " << id;
    EXPECT_GT(series.records_emitted, 0) << "query " << id;
  }

  // The shared selection's named counters saw every pushed record once.
  ASSERT_EQ(snap.counters.count("selection.a.records_in"), 1u);
  EXPECT_EQ(snap.counters.at("selection.a.records_in"), 600);
  EXPECT_EQ(snap.counters.at("selection.a.records_out") +
                snap.counters.at("selection.a.records_dropped"),
            600);
}

TEST(MetricsE2E, SyncPerQueryCountsMatchRouterOutputs) {
  CheckMetricsMatchRouter(/*threaded=*/false);
}

TEST(MetricsE2E, ThreadedPerQueryCountsMatchRouterOutputs) {
  CheckMetricsMatchRouter(/*threaded=*/true);
}

// Batched edges: the router records each run of equal (query, event time)
// with one counted histogram record; the counts must still equal the rows
// delivered.
TEST(MetricsE2E, SyncBatchedPerQueryCountsMatchDeliveredRows) {
  CheckMetricsMatchRouter(/*threaded=*/false, /*batch_size=*/64);
}

TEST(MetricsE2E, ThreadedBatchedPerQueryCountsMatchDeliveredRows) {
  CheckMetricsMatchRouter(/*threaded=*/true, /*batch_size=*/64);
}

TEST(MetricsE2E, JoinSliceReuseIsAttributed) {
  ManualClock clock;
  auto job = MakeJob(Kind::kJoin, /*threaded=*/false, &clock);
  ASSERT_TRUE(job->Start().ok());
  // Two identical join queries: the second one's windows trigger on the
  // same slice pairs, so its results must come from the memo (reuse).
  const auto desc = *QueryBuilder::Join().TumblingWindow(100).Build();
  const QueryId q1 = *job->Submit(desc);
  const QueryId q2 = *job->Submit(desc);
  job->Pump(true);

  Rng rng(5);
  TimestampMs t = 1;
  for (int i = 0; i < 300; ++i) {
    t += rng.UniformInt(1, 3);
    clock.SetMs(t);
    const Row row{rng.UniformInt(0, 3), rng.UniformInt(0, 99)};
    if (i % 2 == 0) {
      job->Push(0, t, row);
    } else {
      job->Push(1, t, row);
    }
    if (i % 25 == 24) job->PushWatermark(t);
  }
  job->FinishAndWait();

  const auto snap = job->MetricsSnapshot();
  ASSERT_EQ(snap.queries.count(q1), 1u);
  ASSERT_EQ(snap.queries.count(q2), 1u);
  const auto& s1 = snap.queries.at(q1);
  const auto& s2 = snap.queries.at(q2);
  EXPECT_GT(s1.records_emitted, 0);
  EXPECT_EQ(s1.records_emitted, s2.records_emitted);
  // One of the twins paid the slice computations; across both queries
  // every triggered pair beyond the first toucher was a reuse.
  EXPECT_GT(s1.slices_computed + s2.slices_computed, 0);
  EXPECT_GT(s1.slices_reused + s2.slices_reused, 0);
}

TEST(MetricsE2E, SubmitBeforeStartIsFailedPrecondition) {
  ManualClock clock;
  auto job = MakeJob(Kind::kAggregation, /*threaded=*/false, &clock);
  const auto result = job->Submit(
      *QueryBuilder::Aggregation().TumblingWindow(100).Build());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().ToString().find("before Start"),
            std::string::npos)
      << result.status().ToString();
}

TEST(MetricsE2E, SubmitOnFinishedJobIsFailedPrecondition) {
  ManualClock clock;
  auto job = MakeJob(Kind::kAggregation, /*threaded=*/false, &clock);
  ASSERT_TRUE(job->Start().ok());
  job->FinishAndWait();
  const auto result = job->Submit(
      *QueryBuilder::Aggregation().TumblingWindow(100).Build());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().ToString().find("finished"), std::string::npos)
      << result.status().ToString();
  // Cancel is guarded the same way.
  EXPECT_EQ(job->Cancel(1).code(), StatusCode::kFailedPrecondition);
}

TEST(MetricsE2E, SubmitOnStoppedJobIsFailedPrecondition) {
  ManualClock clock;
  auto job = MakeJob(Kind::kAggregation, /*threaded=*/false, &clock);
  ASSERT_TRUE(job->Start().ok());
  job->Stop();
  const auto result = job->Submit(
      *QueryBuilder::Aggregation().TumblingWindow(100).Build());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MetricsE2E, PushResultDistinguishesDropCauses) {
  ManualClock clock;
  auto job = MakeJob(Kind::kAggregation, /*threaded=*/false, &clock);

  // Not started yet: permanent refusal, not backpressure.
  EXPECT_EQ(job->Push(0, 1, Row{0, 1}), PushResult::kShutdown);

  ASSERT_TRUE(job->Start().ok());
  clock.SetMs(100);
  EXPECT_EQ(job->Push(0, 100, Row{0, 1}), PushResult::kAccepted);
  // Aggregation topology has no stream B.
  EXPECT_EQ(job->Push(1, 100, Row{0, 1}), PushResult::kShutdown);

  // Flush a changelog at t=200; a tuple behind the marker is clamped.
  ASSERT_TRUE(
      job->Submit(*QueryBuilder::Aggregation().TumblingWindow(100).Build())
          .ok());
  clock.SetMs(200);
  job->Pump(true);
  EXPECT_EQ(job->Push(0, 50, Row{0, 1}), PushResult::kLateClamped);
  EXPECT_EQ(job->Push(0, 300, Row{0, 1}), PushResult::kAccepted);

  job->FinishAndWait();
  // Finished: permanently refused again.
  EXPECT_EQ(job->Push(0, 400, Row{0, 1}), PushResult::kShutdown);

  const auto snap = job->MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("job.push_accepted"), 2);
  EXPECT_EQ(snap.counters.at("job.push_clamped"), 1);
  // Shutdown refusals are tallied separately — none of them count as
  // backpressure (the sync runner never exerts any here).
  EXPECT_EQ(snap.counters.at("job.push_backpressure"), 0);
  EXPECT_EQ(snap.counters.at("job.push_shutdown"), 3);
}

TEST(MetricsE2E, TraceRecordsLifecycleInOrder) {
  ManualClock clock;
  auto job = MakeJob(Kind::kAggregation, /*threaded=*/false, &clock);
  ASSERT_TRUE(job->Start().ok());

  const QueryId id = *job->Submit(
      *QueryBuilder::Aggregation().TumblingWindow(50).Build());
  job->Pump(true);
  ASSERT_TRUE(job->WaitForDeployment());

  for (TimestampMs t = 1; t <= 200; t += 5) {
    clock.SetMs(t);
    job->Push(0, t, Row{0, 1});
    if (t % 50 == 1) job->PushWatermark(t);
  }
  ASSERT_TRUE(job->Cancel(id).ok());
  job->Pump(true);
  job->FinishAndWait();

  // Lifecycle events of `id` in causal order, job-level events around them.
  std::vector<obs::TraceEventKind> kinds;
  for (const auto& e : job->trace().Events()) {
    if (e.query == id || e.kind == obs::TraceEventKind::kChangelogFlush ||
        e.kind == obs::TraceEventKind::kFinish) {
      kinds.push_back(e.kind);
    }
  }
  auto index_of = [&](obs::TraceEventKind k) {
    for (size_t i = 0; i < kinds.size(); ++i) {
      if (kinds[i] == k) return static_cast<ptrdiff_t>(i);
    }
    return ptrdiff_t{-1};
  };
  const auto submit = index_of(obs::TraceEventKind::kSubmit);
  const auto flush = index_of(obs::TraceEventKind::kChangelogFlush);
  const auto ack = index_of(obs::TraceEventKind::kDeployAck);
  const auto first = index_of(obs::TraceEventKind::kFirstResult);
  const auto cancel = index_of(obs::TraceEventKind::kCancel);
  const auto finish = index_of(obs::TraceEventKind::kFinish);
  ASSERT_GE(submit, 0);
  ASSERT_GE(flush, 0);
  ASSERT_GE(ack, 0);
  ASSERT_GE(first, 0);
  ASSERT_GE(cancel, 0);
  ASSERT_GE(finish, 0);
  EXPECT_LT(submit, flush);
  EXPECT_LT(flush, ack);
  EXPECT_LT(ack, first);
  EXPECT_LT(first, cancel);
  EXPECT_LT(cancel, finish);
}

TEST(MetricsE2E, DisabledRegistryStillProducesResults) {
  ManualClock clock;
  auto job = MakeJob(Kind::kAggregation, /*threaded=*/false, &clock,
                     /*enable_metrics=*/false);
  ASSERT_TRUE(job->Start().ok());
  std::vector<QueryId> ids;
  const auto sink_counts = RunAggregationWorkload(job.get(), &clock, &ids);
  int64_t total = 0;
  for (const auto& [id, n] : sink_counts) total += n;
  EXPECT_GT(total, 0);
  EXPECT_TRUE(job->MetricsSnapshot().queries.empty());
}

// Snapshots taken while threaded jobs run read operator counters that the
// task threads are writing; every one of them is an owned atomic, so this
// stays race-free under ThreadSanitizer. Covers the join (budgeted, so it
// spills), aggregation and multiway operators plus the routers.
TEST(MetricsSnapshotTest, PollsOperatorCountersWhileThreadedJobsRun) {
  struct Leg {
    Kind kind;
    int streams;
    QueryDescriptor query;
  };
  std::vector<Leg> legs;
  legs.push_back({Kind::kJoin, 2,
                  *QueryBuilder::Join().SlidingWindow(120, 40).Build()});
  legs.push_back({Kind::kAggregation, 1,
                  *QueryBuilder::Aggregation()
                       .SlidingWindow(100, 20)
                       .Agg(spe::AggKind::kSum, 1)
                       .Build()});
  legs.push_back({Kind::kMultiway, 3,
                  *QueryBuilder::MultiwayJoin()
                       .Input(0)
                       .Input(1)
                       .Input(2)
                       .TumblingWindow(60)
                       .Build()});
  for (const Leg& leg : legs) {
    ManualClock clock;
    AStreamJob::Options options;
    options.topology = leg.kind;
    if (leg.kind == Kind::kMultiway) options.num_streams = leg.streams;
    options.parallelism = 2;
    options.threaded = true;
    options.clock = &clock;
    options.session.batch_size = 1;
    if (leg.kind == Kind::kJoin) {
      options.storage.memory_budget_bytes = 2 << 10;
    }
    auto job = std::move(AStreamJob::Create(options)).value();
    ASSERT_TRUE(job->Start().ok());
    // Two specs per leg so the slicer's factor registry has work too.
    ASSERT_TRUE(job->Submit(leg.query).ok());
    QueryDescriptor second = leg.query;
    second.window = spe::WindowSpec::Sliding(90, 30);
    ASSERT_TRUE(job->Submit(second).ok());
    job->Pump(true);

    Rng rng(23);
    TimestampMs t = 1;
    int64_t last_ops = 0;
    for (int i = 0; i < 1500; ++i) {
      t += rng.UniformInt(0, 2);
      clock.SetMs(t);
      job->Push(i % leg.streams, t,
                Row{rng.UniformInt(0, 7), rng.UniformInt(0, 99)});
      if (i % 30 == 29) job->PushWatermark(t);
      if (i % 10 == 9) {
        const obs::MetricsRegistry::Snapshot snap = job->MetricsSnapshot();
        EXPECT_EQ(snap.gauges.count("state.arena_bytes"), 1u);
        const int64_t ops = job->CollectStats().bitset_ops;
        EXPECT_GE(ops, last_ops);
        last_ops = ops;
      }
    }
    ASSERT_TRUE(job->FinishAndWait().ok());
    const AStreamJob::OperatorStats stats = job->CollectStats();
    EXPECT_GT(stats.bitset_ops, 0);
    EXPECT_GT(stats.router_records_out, 0);
    if (leg.kind == Kind::kJoin) {
      EXPECT_GT(stats.join_pairs_computed, 0);
      EXPECT_GT(job->MetricsSnapshot().histograms.at("storage.spill_ms").count,
                0);
    }
  }
}

// Metered state shares are apportioned over each operator's hosted
// queries. The control thread computes them (MeteredCosts, metered
// snapshots) while the task threads apply the submit/cancel changelogs,
// so they must read a published copy, never the live query table.
TEST(MetricsSnapshotTest, MeteredCostsWhileThreadedChurnRuns) {
  ManualClock clock;
  AStreamJob::Options options;
  options.topology = Kind::kAggregation;
  options.parallelism = 2;
  options.threaded = true;
  options.clock = &clock;
  options.session.batch_size = 1;
  options.meter_costs = true;
  auto job = std::move(AStreamJob::Create(options)).value();
  ASSERT_TRUE(job->Start().ok());

  std::vector<QueryId> live;
  auto submit = [&](TimestampMs length) {
    const auto id = job->Submit(*QueryBuilder::Aggregation()
                                     .SlidingWindow(length, length / 2)
                                     .Agg(spe::AggKind::kSum, 1)
                                     .Build());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    live.push_back(*id);
  };
  submit(100);
  submit(60);
  job->Pump(true);

  Rng rng(29);
  TimestampMs t = 1;
  bool saw_shares = false;
  for (int i = 0; i < 1200; ++i) {
    t += rng.UniformInt(0, 2);
    clock.SetMs(t);
    job->Push(0, t, Row{rng.UniformInt(0, 7), rng.UniformInt(0, 99)});
    if (i % 20 == 19) job->PushWatermark(t);
    if (i % 40 == 39) {
      // Churn: retire the oldest query, admit one with a new window.
      ASSERT_TRUE(job->Cancel(live.front()).ok());
      live.erase(live.begin());
      submit(40 + 20 * (i / 40 % 4));
      job->Pump(true);
    }
    if (i % 5 == 4) {
      for (const auto& [id, cost] : job->MeteredCosts()) {
        EXPECT_GE(cost, 0) << "query " << id;
      }
      const obs::MetricsRegistry::Snapshot snap = job->MetricsSnapshot();
      for (QueryId id : live) {
        if (snap.gauges.count("query." + std::to_string(id) +
                              ".cost_state_bytes") > 0) {
          saw_shares = true;
        }
      }
    }
  }
  ASSERT_TRUE(job->FinishAndWait().ok());
  EXPECT_TRUE(saw_shares);
}

}  // namespace
}  // namespace astream::core
