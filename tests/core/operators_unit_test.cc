// Focused unit tests of the shared operators outside full topologies:
// SharedSelection tagging, RouterOperator fan-out, changelogs that do not
// apply, and QoS statistics.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/qos.h"
#include "core/router.h"
#include "core/shared_aggregation.h"
#include "core/shared_selection.h"

namespace astream::core {
namespace {

using spe::Row;

class RecordingCollector : public spe::Collector {
 public:
  void Emit(spe::StreamElement el) override {
    records.push_back(std::move(el.record));
  }
  void EmitRun(spe::RecordBatch& run) override {
    records.insert(records.end(), std::make_move_iterator(run.begin()),
                   std::make_move_iterator(run.end()));
  }
  std::vector<spe::Record> records;
};

Changelog CreateLog(int64_t epoch, TimestampMs time,
                    std::vector<std::pair<QueryId, QueryDescriptor>> adds,
                    std::vector<std::pair<QueryId, int>> dels,
                    size_t num_slots) {
  Changelog log;
  log.epoch = epoch;
  log.time = time;
  int slot = 0;
  for (auto& [id, desc] : adds) {
    QueryActivation a;
    a.id = id;
    a.slot = slot++;
    a.created_at = time;
    a.desc = std::move(desc);
    log.created.push_back(std::move(a));
  }
  for (auto [id, s] : dels) log.deleted.push_back(QueryDeactivation{id, s});
  log.num_slots = num_slots;
  log.ComputeChangelogSet();
  return log;
}

spe::ControlMarker Marker(Changelog log) {
  return Changelog::MakeMarker(std::make_shared<Changelog>(std::move(log)));
}

QueryDescriptor Sel(Predicate a, Predicate b = {1, CmpOp::kGe, 0}) {
  QueryDescriptor d;
  d.kind = QueryKind::kJoin;  // has both sides
  d.select_a = {a};
  d.select_b = {b};
  return d;
}

TEST(SharedSelectionTest, TagsPerSidePredicates) {
  SharedSelection::Config cfg;
  cfg.stream = 0;
  SharedSelection sel_a(cfg);
  cfg.stream = 1;
  SharedSelection sel_b(cfg);
  RecordingCollector out_a, out_b;

  auto log = CreateLog(
      1, 10,
      {{1, Sel({1, CmpOp::kLt, 50}, {1, CmpOp::kGe, 50})},
       {2, Sel({1, CmpOp::kGe, 50}, {1, CmpOp::kLt, 50})}},
      {}, 2);
  sel_a.OnMarker(Marker(log), &out_a);
  sel_b.OnMarker(Marker(log), &out_b);

  spe::Record r;
  r.event_time = 20;
  r.row = Row{7, 30};
  sel_a.ProcessRecord(0, r, &out_a);
  sel_b.ProcessRecord(0, r, &out_b);

  ASSERT_EQ(out_a.records.size(), 1u);
  EXPECT_TRUE(out_a.records[0].tags.Test(0));   // Q1: col1 < 50 on A
  EXPECT_FALSE(out_a.records[0].tags.Test(1));  // Q2: col1 >= 50 on A
  ASSERT_EQ(out_b.records.size(), 1u);
  EXPECT_FALSE(out_b.records[0].tags.Test(0));  // Q1 B side: >= 50
  EXPECT_TRUE(out_b.records[0].tags.Test(1));   // Q2 B side: < 50
}

TEST(SharedSelectionTest, DropsUntaggedTuples) {
  SharedSelection sel({});
  RecordingCollector out;
  auto log =
      CreateLog(1, 10, {{1, Sel({1, CmpOp::kLt, 10})}}, {}, 1);
  sel.OnMarker(Marker(log), &out);
  spe::Record r;
  r.event_time = 20;
  r.row = Row{7, 99};  // fails the predicate
  sel.ProcessRecord(0, r, &out);
  EXPECT_TRUE(out.records.empty());
  EXPECT_EQ(sel.records_dropped(), 1);
}

TEST(SharedSelectionTest, NoQueriesDropsEverything) {
  SharedSelection sel({});
  RecordingCollector out;
  spe::Record r;
  r.row = Row{1, 2};
  sel.ProcessRecord(0, r, &out);
  EXPECT_TRUE(out.records.empty());
}

TEST(SharedSelectionTest, PredicateIndexDeduplicatesSharedPredicates) {
  SharedSelection::Config cfg;
  cfg.use_predicate_index = true;
  SharedSelection sel(cfg);
  RecordingCollector out;
  // Three queries, two of which share the identical predicate.
  const Predicate shared{1, CmpOp::kLt, 50};
  auto log = CreateLog(1, 10,
                       {{1, Sel(shared)},
                        {2, Sel(shared)},
                        {3, Sel({2, CmpOp::kGt, 10})}},
                       {}, 3);
  sel.OnMarker(Marker(log), &out);
  EXPECT_EQ(sel.IndexSize(), 2u);  // shared predicate stored once

  spe::Record r;
  r.event_time = 20;
  r.row = Row{7, 30, 5};
  sel.ProcessRecord(0, r, &out);
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_TRUE(out.records[0].tags.Test(0));
  EXPECT_TRUE(out.records[0].tags.Test(1));
  EXPECT_FALSE(out.records[0].tags.Test(2));  // col2 > 10 fails (5)
}

/// Property: the indexed evaluation must tag identically to the naive
/// per-query conjunction evaluation for random queries and rows.
TEST(SharedSelectionTest, IndexMatchesNaiveEvaluation) {
  Rng rng(404);
  for (int round = 0; round < 20; ++round) {
    SharedSelection::Config indexed_cfg;
    indexed_cfg.use_predicate_index = true;
    SharedSelection indexed(indexed_cfg);
    SharedSelection::Config naive_cfg;
    naive_cfg.use_predicate_index = false;
    SharedSelection naive(naive_cfg);

    std::vector<std::pair<QueryId, QueryDescriptor>> adds;
    const int num_queries = 1 + static_cast<int>(rng.UniformInt(0, 9));
    for (int q = 0; q < num_queries; ++q) {
      QueryDescriptor d;
      d.kind = QueryKind::kSelection;
      const int preds = static_cast<int>(rng.UniformInt(0, 3));
      for (int p = 0; p < preds; ++p) {
        d.select_a.push_back(Predicate{
            1 + static_cast<int>(rng.UniformInt(0, 2)),
            static_cast<CmpOp>(rng.UniformInt(0, 4)),
            rng.UniformInt(0, 20)});  // small domain: duplicates likely
      }
      adds.emplace_back(q + 1, std::move(d));
    }
    auto log = CreateLog(1, 10, adds, {}, num_queries);
    RecordingCollector out_i, out_n;
    indexed.OnMarker(Marker(log), &out_i);
    naive.OnMarker(Marker(log), &out_n);

    for (int i = 0; i < 100; ++i) {
      spe::Record r;
      r.event_time = 20 + i;
      r.row = Row{rng.UniformInt(0, 5), rng.UniformInt(0, 20),
                  rng.UniformInt(0, 20), rng.UniformInt(0, 20)};
      indexed.ProcessRecord(0, r, &out_i);
      naive.ProcessRecord(0, r, &out_n);
    }
    ASSERT_EQ(out_i.records.size(), out_n.records.size());
    for (size_t i = 0; i < out_i.records.size(); ++i) {
      EXPECT_EQ(out_i.records[i].tags, out_n.records[i].tags);
      EXPECT_EQ(out_i.records[i].row, out_n.records[i].row);
    }
  }
}

TEST(RouterOperatorTest, CopiesRawTuplesPerSubscribedQuery) {
  RouterOperator::Config cfg;
  cfg.num_ports = 1;
  cfg.routes_raw = [](const ActiveQuery&, int) { return true; };
  RouterOperator router(cfg);
  RecordingCollector out;
  QueryDescriptor d;
  d.kind = QueryKind::kSelection;
  auto log = CreateLog(1, 10, {{1, d}, {2, d}, {3, d}}, {}, 3);
  router.OnMarker(Marker(log), &out);

  spe::Record r;
  r.event_time = 20;
  r.row = Row{1, 5};
  r.tags.Set(0);
  r.tags.Set(2);  // queries 1 and 3
  router.ProcessRecord(0, r, &out);

  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[0].channel, 1);
  EXPECT_EQ(out.records[1].channel, 3);
  EXPECT_EQ(out.records[0].row, r.row);
  EXPECT_EQ(router.records_routed(), 2);
}

TEST(RouterOperatorTest, ChannelStampedRecordsPassThrough) {
  RouterOperator router({});
  RecordingCollector out;
  spe::Record r;
  r.event_time = 20;
  r.row = Row{1, 5};
  r.channel = 42;  // pre-resolved by a shared windowed operator
  router.ProcessRecord(0, r, &out);
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.records[0].channel, 42);
}

TEST(RouterOperatorTest, PortFilteredRouting) {
  RouterOperator::Config cfg;
  cfg.num_ports = 2;
  cfg.routes_raw = [](const ActiveQuery& q, int port) {
    return port == 0 && q.desc.kind == QueryKind::kSelection;
  };
  RouterOperator router(cfg);
  RecordingCollector out;
  QueryDescriptor sel;
  sel.kind = QueryKind::kSelection;
  QueryDescriptor join;
  join.kind = QueryKind::kJoin;
  auto log = CreateLog(1, 10, {{1, sel}, {2, join}}, {}, 2);
  router.OnMarker(Marker(log), &out);

  spe::Record r;
  r.row = Row{1};
  r.tags = QuerySet::AllSet(2);
  router.ProcessRecord(0, r, &out);  // only the selection receives it
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.records[0].channel, 1);
  out.records.clear();
  spe::Record r2;
  r2.row = Row{1};
  r2.tags = QuerySet::AllSet(2);
  router.ProcessRecord(1, r2, &out);  // port 1 routes nothing raw
  EXPECT_TRUE(out.records.empty());
}

// A changelog that deletes a query the operator's table does not hold
// means the table disagrees with the session. Each shared operator throws
// (failing its task) instead of running on with a stale table.
Changelog DeletesAbsentQuery() {
  return CreateLog(1, 10, {}, {{5, 0}}, 1);
}

TEST(ChangelogApplyFailureTest, SelectionThrows) {
  SharedSelection sel(SharedSelection::Config{});
  RecordingCollector out;
  EXPECT_THROW(sel.OnMarker(Marker(DeletesAbsentQuery()), &out),
               ChangelogApplyError);
}

TEST(ChangelogApplyFailureTest, WindowedOperatorThrows) {
  SharedAggregation::AggConfig cfg;
  cfg.shared.hosts = [](const ActiveQuery& q) {
    return q.desc.kind == QueryKind::kAggregation;
  };
  SharedAggregation agg(std::move(cfg));
  RecordingCollector out;
  EXPECT_THROW(agg.OnMarker(Marker(DeletesAbsentQuery()), &out),
               ChangelogApplyError);
}

TEST(ChangelogApplyFailureTest, RouterThrows) {
  RouterOperator router({});
  RecordingCollector out;
  EXPECT_THROW(router.OnMarker(Marker(DeletesAbsentQuery()), &out),
               ChangelogApplyError);
}

TEST(LatencyStatsTest, BasicMoments) {
  LatencyStats stats;
  for (int v : {10, 20, 30, 40}) stats.Add(v);
  EXPECT_EQ(stats.count(), 4);
  EXPECT_EQ(stats.min(), 10);
  EXPECT_EQ(stats.max(), 40);
  EXPECT_DOUBLE_EQ(stats.mean(), 25.0);
  EXPECT_EQ(stats.Percentile(0), 10);
  EXPECT_EQ(stats.Percentile(100), 40);
  EXPECT_EQ(stats.Percentile(50), 20);
}

TEST(LatencyStatsTest, ThinsBeyondCap) {
  LatencyStats stats;
  for (int i = 0; i < 200'000; ++i) stats.Add(i);
  EXPECT_EQ(stats.count(), 200'000);
  EXPECT_EQ(stats.max(), 199'999);
  // Percentiles remain sane after thinning.
  EXPECT_NEAR(static_cast<double>(stats.Percentile(50)), 100'000, 5'000);
}

TEST(LatencyStatsTest, MergeIsExactAndWeighsBothSides) {
  // 150k low values (thinned to stride 4) and 20k high values (stride 1):
  // the merge keeps count, sum, min and max exact and samples both sides
  // at one stride. The combined p75 is about 850; concatenating the raw
  // sample buffers would over-weight the high side and put it above 1000.
  LatencyStats low;
  for (int i = 0; i < 150'000; ++i) low.Add(i % 1000);
  LatencyStats high;
  for (int i = 0; i < 20'000; ++i) high.Add(1000 + i % 1000);
  const double sum = 150.0 * 499'500 + 20.0 * 1'499'500;
  // Both orders: either side may be the coarser one.
  for (const bool low_first : {true, false}) {
    LatencyStats merged = low_first ? low : high;
    merged.Merge(low_first ? high : low);
    EXPECT_EQ(merged.count(), 170'000);
    EXPECT_EQ(merged.min(), 0);
    EXPECT_EQ(merged.max(), 1999);
    EXPECT_DOUBLE_EQ(merged.mean(), sum / 170'000);
    EXPECT_NEAR(static_cast<double>(merged.Percentile(75)), 850, 20);
  }

  LatencyStats small;
  small.Add(5);
  LatencyStats empty;
  empty.Merge(small);
  small.Merge(LatencyStats{});
  EXPECT_EQ(empty.count(), 1);
  EXPECT_EQ(empty.Percentile(50), 5);
  EXPECT_EQ(small.count(), 1);
}

TEST(QosMonitorTest, PerQueryAccounting) {
  QosMonitor qos;
  qos.RecordOutput(1, 100, 150);
  qos.RecordOutput(1, 110, 150);
  qos.RecordOutput(2, 120, 150);
  qos.RecordDeployment(1, 42);
  EXPECT_EQ(qos.total_outputs(), 3);
  EXPECT_EQ(qos.OutputsOf(1), 2);
  EXPECT_EQ(qos.OutputsOf(2), 1);
  EXPECT_EQ(qos.OutputsOf(99), 0);
  const auto snap = qos.TakeSnapshot();
  EXPECT_EQ(snap.event_time_latency.count(), 3);
  EXPECT_EQ(snap.event_time_latency.max(), 50);
  ASSERT_EQ(snap.deployment_events.size(), 1u);
  EXPECT_EQ(snap.deployment_events[0].second, 42);
}

}  // namespace
}  // namespace astream::core
