// Tests of the experiment harness itself: the query-at-a-time baseline
// SUT and the Fig. 5 driver.

#include <gtest/gtest.h>

#include "harness/astream_sut.h"
#include "harness/baseline_sut.h"
#include "harness/driver.h"

namespace astream::harness {
namespace {

using core::CmpOp;
using core::Predicate;
using core::QueryDescriptor;
using core::QueryKind;
using spe::Row;

QueryDescriptor AggQuery() {
  QueryDescriptor d;
  d.kind = QueryKind::kAggregation;
  d.window = spe::WindowSpec::Tumbling(100);
  d.agg = {spe::AggKind::kSum, 1};
  return d;
}

TEST(BaselineSutTest, DeploysAndProducesResults) {
  BaselineSut::Config cfg;
  cfg.deploy_cost_ms = 0;
  cfg.threaded = false;
  BaselineSut sut(cfg);
  ASSERT_TRUE(sut.Start().ok());
  auto id = sut.Submit(AggQuery());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(sut.WaitDeployed(5'000));
  EXPECT_EQ(sut.num_active_jobs(), 1u);

  const TimestampMs base = WallClock::Default()->NowMs();
  for (int i = 0; i < 50; ++i) {
    sut.Push(0, base + i, Row{1, 2});
  }
  sut.PushWatermark(base + 1000);
  sut.FinishAndWait();
  EXPECT_GT(sut.qos().OutputsOf(*id), 0);
}

TEST(BaselineSutTest, DeploymentsSerializeAndCost) {
  BaselineSut::Config cfg;
  cfg.deploy_cost_ms = 30;
  cfg.threaded = false;
  BaselineSut sut(cfg);
  ASSERT_TRUE(sut.Start().ok());
  const TimestampMs start = WallClock::Default()->NowMs();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sut.Submit(AggQuery()).ok());
  }
  ASSERT_TRUE(sut.WaitDeployed(10'000));
  const TimestampMs elapsed = WallClock::Default()->NowMs() - start;
  EXPECT_GE(elapsed, 4 * 30);  // serialized: at least 4 x cost
  EXPECT_EQ(sut.num_active_jobs(), 4u);
  // Deployment latencies recorded and increasing (queueing).
  const auto snap = sut.qos().TakeSnapshot();
  ASSERT_EQ(snap.deployment_events.size(), 4u);
  EXPECT_GT(snap.deployment_events.back().second,
            snap.deployment_events.front().second);
  sut.Stop();
}

TEST(BaselineSutTest, CancelRemovesJob) {
  BaselineSut::Config cfg;
  cfg.deploy_cost_ms = 0;
  cfg.threaded = false;
  BaselineSut sut(cfg);
  ASSERT_TRUE(sut.Start().ok());
  auto id = sut.Submit(AggQuery());
  ASSERT_TRUE(sut.WaitDeployed(5'000));
  ASSERT_TRUE(sut.Cancel(*id).ok());
  ASSERT_TRUE(sut.WaitDeployed(5'000));
  EXPECT_EQ(sut.num_active_jobs(), 0u);
  sut.Stop();
}

TEST(BaselineSutTest, JoinJobGetsBothStreams) {
  BaselineSut::Config cfg;
  cfg.deploy_cost_ms = 0;
  cfg.threaded = false;
  BaselineSut sut(cfg);
  ASSERT_TRUE(sut.Start().ok());
  QueryDescriptor join;
  join.kind = QueryKind::kJoin;
  join.window = spe::WindowSpec::Tumbling(100);
  auto id = sut.Submit(join);
  ASSERT_TRUE(sut.WaitDeployed(5'000));
  const TimestampMs base = WallClock::Default()->NowMs();
  sut.Push(0, base + 1, Row{7, 1});
  sut.Push(1, base + 2, Row{7, 2});
  sut.FinishAndWait();
  EXPECT_EQ(sut.qos().OutputsOf(*id), 1);
}

TEST(DriverTest, RunsScenarioAndReports) {
  core::AStreamJob::Options options;
  options.topology = core::AStreamJob::TopologyKind::kAggregation;
  options.parallelism = 1;
  options.threaded = false;
  options.session.batch_size = 1;  // deploy immediately (short run)
  AStreamSut sut(options);
  ASSERT_TRUE(sut.Start().ok());

  workload::Sc1Scenario scenario(/*rate_per_sec=*/50, /*max_parallel=*/3);
  Driver::Config cfg;
  cfg.duration_ms = 600;
  cfg.data_rate_per_sec = 5'000;
  cfg.query_factory = [] {
    QueryDescriptor d;
    d.kind = QueryKind::kAggregation;
    d.window = spe::WindowSpec::Tumbling(100);
    d.agg = {spe::AggKind::kCount, 1};
    return d;
  };
  cfg.data.key_max = 10;
  Driver driver(&sut, &scenario, cfg);
  const auto report = driver.Run();

  EXPECT_GT(report.pushed_a, 0);
  EXPECT_EQ(report.pushed_b, 0);
  EXPECT_EQ(report.created, 3);
  EXPECT_NEAR(report.input_rate_per_sec, 5'000, 2'000);
  EXPECT_GT(report.total_outputs, 0);
  EXPECT_TRUE(report.sustainable);
}

TEST(DriverTest, SamplesTimeSeries) {
  core::AStreamJob::Options options;
  options.topology = core::AStreamJob::TopologyKind::kAggregation;
  options.threaded = false;
  AStreamSut sut(options);
  ASSERT_TRUE(sut.Start().ok());
  Driver::Config cfg;
  cfg.duration_ms = 500;
  cfg.data_rate_per_sec = 2'000;
  cfg.sample_interval_ms = 100;
  cfg.query_factory = [] {
    QueryDescriptor d;
    d.kind = QueryKind::kSelection;
    d.select_a = {Predicate{1, CmpOp::kGe, 0}};
    return d;
  };
  workload::Sc1Scenario scenario(100, 1);
  Driver driver(&sut, &scenario, cfg);
  const auto report = driver.Run();
  EXPECT_GE(report.samples.size(), 3u);
  for (size_t i = 1; i < report.samples.size(); ++i) {
    EXPECT_GE(report.samples[i].pushed, report.samples[i - 1].pushed);
  }
}

}  // namespace
}  // namespace astream::harness
