#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/core/e2e_harness.h"

namespace astream::core {
namespace {

using spe::Row;
using Kind = AStreamJob::TopologyKind;

QueryDescriptor SelectionQuery(Predicate p) {
  QueryDescriptor d;
  d.kind = QueryKind::kSelection;
  d.select_a = {p};
  return d;
}

QueryDescriptor AggQuery(spe::WindowSpec window,
                         std::vector<Predicate> preds = {},
                         spe::AggKind agg = spe::AggKind::kSum) {
  QueryDescriptor d;
  d.kind = QueryKind::kAggregation;
  d.select_a = std::move(preds);
  d.window = window;
  d.agg = {agg, 1};
  return d;
}

QueryDescriptor JoinQuery(spe::WindowSpec window,
                          std::vector<Predicate> preds_a = {},
                          std::vector<Predicate> preds_b = {}) {
  QueryDescriptor d;
  d.kind = QueryKind::kJoin;
  d.select_a = std::move(preds_a);
  d.select_b = std::move(preds_b);
  d.window = window;
  return d;
}

TEST(AStreamE2ETest, SelectionFiltersAndRoutes) {
  E2EHarness h(Kind::kAggregation);
  const QueryId q = h.Create(SelectionQuery({1, CmpOp::kLt, 50}), 0);
  h.Push(0, 10, Row{1, 40});   // matches
  h.Push(0, 11, Row{2, 60});   // filtered
  h.Push(0, 12, Row{3, 10});   // matches
  h.Watermark(20);
  h.FinishAndVerify();
  EXPECT_EQ(E2EHarness::CountRows(h.outputs().at(q)), 2);
}

TEST(AStreamE2ETest, TuplesBeforeCreationExcluded) {
  E2EHarness h(Kind::kAggregation);
  h.Push(0, 5, Row{1, 1});  // no query yet — dropped
  const QueryId q = h.Create(SelectionQuery({1, CmpOp::kGe, 0}), 10);
  h.Push(0, 15, Row{1, 2});
  h.FinishAndVerify();
  EXPECT_EQ(E2EHarness::CountRows(h.outputs().at(q)), 1);
}

TEST(AStreamE2ETest, TuplesAfterDeletionExcluded) {
  E2EHarness h(Kind::kAggregation);
  const QueryId q = h.Create(SelectionQuery({1, CmpOp::kGe, 0}), 0);
  h.Push(0, 5, Row{1, 1});
  h.Delete(q, 10);
  h.Push(0, 15, Row{1, 2});  // after deletion
  h.FinishAndVerify();
  EXPECT_EQ(E2EHarness::CountRows(h.outputs().at(q)), 1);
}

TEST(AStreamE2ETest, TumblingAggregation) {
  E2EHarness h(Kind::kAggregation);
  h.Create(AggQuery(spe::WindowSpec::Tumbling(100)), 0);
  // Query created at t=1; windows [1,101), [101,201), ...
  h.Push(0, 10, Row{1, 5});
  h.Push(0, 20, Row{1, 7});
  h.Push(0, 30, Row{2, 3});
  h.Watermark(101);
  h.Push(0, 150, Row{1, 11});
  h.FinishAndVerify();
}

TEST(AStreamE2ETest, SlidingAggregationOverlappingWindows) {
  E2EHarness h(Kind::kAggregation);
  h.Create(AggQuery(spe::WindowSpec::Sliding(100, 40)), 0);
  for (int i = 0; i < 30; ++i) {
    h.Push(0, 5 + i * 10, Row{i % 3, i});
  }
  h.Watermark(320);
  h.FinishAndVerify();
}

TEST(AStreamE2ETest, TwoAggQueriesShareSlices) {
  E2EHarness h(Kind::kAggregation);
  h.Create(AggQuery(spe::WindowSpec::Sliding(100, 50)), 0);
  h.Create(AggQuery(spe::WindowSpec::Sliding(60, 30),
                    {Predicate{1, CmpOp::kLt, 50}}),
           0);
  for (int i = 0; i < 40; ++i) {
    h.Push(0, 2 + i * 7, Row{i % 4, i * 3 % 100});
  }
  h.Watermark(300);
  h.FinishAndVerify();
}

TEST(AStreamE2ETest, MidStreamCreationAggregation) {
  E2EHarness h(Kind::kAggregation);
  h.Create(AggQuery(spe::WindowSpec::Tumbling(50)), 0);
  for (int i = 0; i < 10; ++i) h.Push(0, 5 + i * 10, Row{1, i});
  // Second query joins mid-stream at t=100: its windows start at 101.
  h.Create(AggQuery(spe::WindowSpec::Tumbling(30)), 100);
  for (int i = 0; i < 10; ++i) h.Push(0, 105 + i * 10, Row{1, i});
  h.Watermark(250);
  h.FinishAndVerify();
}

TEST(AStreamE2ETest, DeletionDrainsCompletedWindows) {
  E2EHarness h(Kind::kAggregation);
  const QueryId q = h.Create(AggQuery(spe::WindowSpec::Tumbling(50)), 0);
  // Windows [1,51), [51,101), ...
  h.Push(0, 10, Row{1, 5});
  h.Push(0, 60, Row{1, 7});
  // Delete at ~120: windows ending <= 121 emit ([1,51) and [51,101));
  // the in-flight window [101,151) is cancelled.
  h.Push(0, 110, Row{1, 100});
  h.Delete(q, 120);
  h.Watermark(200);
  h.FinishAndVerify();
  EXPECT_EQ(E2EHarness::CountRows(h.outputs().at(q)), 2);
}

TEST(AStreamE2ETest, SlotReuseKeepsQueriesSeparate) {
  // The paper's core consistency scenario (Fig. 3): Q2 deleted, Q3 created
  // into the same slot; Q3 must not see Q2's data or vice versa.
  E2EHarness h(Kind::kAggregation);
  const QueryId q1 = h.Create(AggQuery(spe::WindowSpec::Tumbling(1000)), 0);
  const QueryId q2 = h.Create(AggQuery(spe::WindowSpec::Tumbling(40)), 0);
  h.Push(0, 10, Row{1, 100});
  h.Push(0, 20, Row{1, 23});
  h.Delete(q2, 60);
  // q3 reuses q2's slot.
  const QueryId q3 = h.Create(AggQuery(spe::WindowSpec::Tumbling(40)), 70);
  h.Push(0, 80, Row{1, 500});
  h.Push(0, 90, Row{1, 1});
  h.Watermark(150);
  h.FinishAndVerify();
  // q2's only completed window [?,?+40) sums 123; q3's sums 501.
  EXPECT_EQ(E2EHarness::CountRows(h.outputs().at(q2)), 1);
  EXPECT_EQ(E2EHarness::CountRows(h.outputs().at(q3)), 1);
  (void)q1;
}

TEST(AStreamE2ETest, SessionWindowAggregation) {
  E2EHarness h(Kind::kAggregation);
  QueryDescriptor d;
  d.kind = QueryKind::kAggregation;
  d.window = spe::WindowSpec::Session(20);
  d.agg = {spe::AggKind::kSum, 1};
  h.Create(d, 0);
  h.Push(0, 10, Row{1, 1});
  h.Push(0, 25, Row{1, 2});   // same session (gap 15 < 20)
  h.Push(0, 60, Row{1, 4});   // new session
  h.Push(0, 65, Row{2, 8});   // separate key
  h.Watermark(100);
  h.FinishAndVerify();
}

TEST(AStreamE2ETest, SessionQueryDeletedPrunesOpenSessions) {
  E2EHarness h(Kind::kAggregation);
  QueryDescriptor d;
  d.kind = QueryKind::kAggregation;
  d.window = spe::WindowSpec::Session(20);
  d.agg = {spe::AggKind::kSum, 1};
  const QueryId q = h.Create(d, 0);
  h.Push(0, 10, Row{1, 1});   // session closes at 30 < 100 — emits
  h.Push(0, 90, Row{1, 2});   // session would close at 110 > 100 — cancelled
  h.Delete(q, 100);
  h.Watermark(200);
  h.FinishAndVerify();
  EXPECT_EQ(E2EHarness::CountRows(h.outputs().at(q)), 1);
}

TEST(AStreamE2ETest, JoinBasic) {
  E2EHarness h(Kind::kJoin);
  h.Create(JoinQuery(spe::WindowSpec::Tumbling(100)), 0);
  h.Push(0, 10, Row{1, 5});
  h.Push(1, 20, Row{1, 7});
  h.Push(0, 30, Row{2, 9});
  h.Push(1, 40, Row{3, 11});  // key 3 unmatched
  h.Watermark(150);
  h.FinishAndVerify();
}

TEST(AStreamE2ETest, JoinPredicatesPerSide) {
  E2EHarness h(Kind::kJoin);
  h.Create(JoinQuery(spe::WindowSpec::Tumbling(100),
                     {Predicate{1, CmpOp::kLt, 50}},
                     {Predicate{1, CmpOp::kGe, 50}}),
           0);
  h.Push(0, 10, Row{1, 40});  // passes A-side
  h.Push(0, 11, Row{1, 60});  // fails A-side
  h.Push(1, 20, Row{1, 70});  // passes B-side
  h.Push(1, 21, Row{1, 30});  // fails B-side
  h.Watermark(150);
  h.FinishAndVerify();
}

TEST(AStreamE2ETest, JoinSlidingWindowsAndSharedPairs) {
  E2EHarness h(Kind::kJoin);
  // Two queries with identical windows share every slice pair.
  h.Create(JoinQuery(spe::WindowSpec::Sliding(60, 30)), 0);
  h.Create(JoinQuery(spe::WindowSpec::Sliding(60, 30),
                     {Predicate{1, CmpOp::kLt, 500}}),
           0);
  for (int i = 0; i < 20; ++i) {
    h.Push(0, 3 + i * 8, Row{i % 3, i * 37 % 1000});
    h.Push(1, 4 + i * 8, Row{i % 3, i * 53 % 1000});
  }
  h.Watermark(250);
  h.FinishAndVerify();
  // Sharing must have happened: pairs reused across the two queries.
  const auto stats = h.job()->CollectStats();
  EXPECT_GT(stats.join_pairs_reused, 0);
}

TEST(AStreamE2ETest, SelectionStatsCoverBothJoinStreams) {
  E2EHarness h(Kind::kJoin);
  h.Create(JoinQuery(spe::WindowSpec::Tumbling(50)), 0);
  for (int i = 0; i < 12; ++i) h.Push(0, 3 + i * 8, Row{i % 3, i});
  for (int i = 0; i < 8; ++i) h.Push(1, 4 + i * 8, Row{i % 3, i});
  h.Watermark(150);
  h.FinishAndVerify();
  const auto stats = h.job()->CollectStats();
  EXPECT_EQ(stats.selection_records_in, 20);
  EXPECT_EQ(stats.selection_records_out, 20);  // no predicates
}

TEST(AStreamE2ETest, JoinAdhocCreateDeleteChurn) {
  E2EHarness h(Kind::kJoin);
  const QueryId q1 = h.Create(JoinQuery(spe::WindowSpec::Tumbling(50)), 0);
  for (int i = 0; i < 8; ++i) {
    h.Push(0, 5 + i * 10, Row{i % 2, i});
    h.Push(1, 6 + i * 10, Row{i % 2, 100 + i});
  }
  const QueryId q2 =
      h.Create(JoinQuery(spe::WindowSpec::Tumbling(30)), 90);
  for (int i = 8; i < 16; ++i) {
    h.Push(0, 5 + i * 10, Row{i % 2, i});
    h.Push(1, 6 + i * 10, Row{i % 2, 100 + i});
  }
  h.Delete(q1, 170);
  for (int i = 16; i < 24; ++i) {
    h.Push(0, 5 + i * 10, Row{i % 2, i});
    h.Push(1, 6 + i * 10, Row{i % 2, 100 + i});
  }
  h.Watermark(300);
  h.FinishAndVerify();
  (void)q2;
}

TEST(AStreamE2ETest, JoinSlotReuseAcrossChangelog) {
  E2EHarness h(Kind::kJoin);
  h.Create(JoinQuery(spe::WindowSpec::Tumbling(200)), 0);  // long window
  const QueryId q2 = h.Create(JoinQuery(spe::WindowSpec::Tumbling(40)), 0);
  h.Push(0, 10, Row{1, 1});
  h.Push(1, 15, Row{1, 2});
  h.Delete(q2, 50);
  // q3 takes q2's slot; its tuples live in later slices.
  h.Create(JoinQuery(spe::WindowSpec::Tumbling(40)), 60);
  h.Push(0, 70, Row{1, 3});
  h.Push(1, 75, Row{1, 4});
  h.Watermark(300);
  h.FinishAndVerify();
}

TEST(AStreamE2ETest, ComplexQueryDepthOne) {
  E2EHarness h(Kind::kComplex);
  QueryDescriptor d;
  d.kind = QueryKind::kComplex;
  d.window = spe::WindowSpec::Tumbling(100);
  d.join_depth = 1;
  d.agg = {spe::AggKind::kSum, 1};
  h.Create(d, 0);
  h.Push(0, 10, Row{1, 5});
  h.Push(1, 20, Row{1, 7});
  h.Push(0, 30, Row{1, 9});
  h.Watermark(250);
  h.FinishAndVerify();
}

TEST(AStreamE2ETest, ComplexQueryDepthTwo) {
  E2EHarness h(Kind::kComplex);
  QueryDescriptor d;
  d.kind = QueryKind::kComplex;
  d.window = spe::WindowSpec::Tumbling(100);
  d.join_depth = 2;
  d.agg = {spe::AggKind::kSum, 1};
  h.Create(d, 0);
  h.Push(0, 10, Row{1, 5});
  h.Push(1, 20, Row{1, 7});
  h.Push(1, 25, Row{1, 11});
  h.Watermark(500);
  h.FinishAndVerify();
}

TEST(AStreamE2ETest, ComplexMixedDepths) {
  E2EHarness h(Kind::kComplex);
  for (int depth = 1; depth <= 3; ++depth) {
    QueryDescriptor d;
    d.kind = QueryKind::kComplex;
    d.window = spe::WindowSpec::Tumbling(60);
    d.join_depth = depth;
    d.agg = {spe::AggKind::kSum, 1};
    h.Create(d, 0);
  }
  for (int i = 0; i < 12; ++i) {
    h.Push(0, 5 + i * 9, Row{i % 2, i + 1});
    h.Push(1, 6 + i * 9, Row{i % 2, 2 * i + 1});
  }
  h.Watermark(600);
  h.FinishAndVerify();
}

TEST(AStreamE2ETest, ParallelismPreservesResults) {
  for (int par : {1, 2, 4}) {
    E2EHarness h(Kind::kAggregation, par);
    h.Create(AggQuery(spe::WindowSpec::Sliding(80, 40)), 0);
    h.Create(AggQuery(spe::WindowSpec::Tumbling(50),
                      {Predicate{2, CmpOp::kGt, 30}}),
             0);
    for (int i = 0; i < 50; ++i) {
      h.Push(0, 2 + i * 5, Row{i % 7, i * 13 % 100, i * 29 % 100});
    }
    h.Watermark(300);
    h.FinishAndVerify();
  }
}

TEST(AStreamE2ETest, ParallelJoinPreservesResults) {
  for (int par : {1, 3}) {
    E2EHarness h(Kind::kJoin, par);
    h.Create(JoinQuery(spe::WindowSpec::Sliding(60, 20)), 0);
    for (int i = 0; i < 30; ++i) {
      h.Push(0, 2 + i * 6, Row{i % 5, i});
      h.Push(1, 3 + i * 6, Row{(i + 1) % 5, i});
    }
    h.Watermark(250);
    h.FinishAndVerify();
  }
}

TEST(AStreamE2ETest, ListModeMatchesGroupedMode) {
  for (StoreMode mode : {StoreMode::kGrouped, StoreMode::kList}) {
    E2EHarness h(Kind::kJoin, 1, mode, /*adaptive=*/false);
    h.Create(JoinQuery(spe::WindowSpec::Sliding(50, 25)), 0);
    h.Create(JoinQuery(spe::WindowSpec::Tumbling(40),
                       {Predicate{1, CmpOp::kLt, 600}}),
             0);
    for (int i = 0; i < 25; ++i) {
      h.Push(0, 2 + i * 7, Row{i % 4, i * 41 % 1000});
      h.Push(1, 3 + i * 7, Row{i % 4, i * 61 % 1000});
    }
    h.Watermark(250);
    h.FinishAndVerify();
  }
}

TEST(AStreamE2ETest, ManyQueriesTriggerAdaptiveListMode) {
  // > 10 concurrent queries flips the slice stores to list mode
  // (Sec. 3.1.4); results must be unaffected.
  E2EHarness h(Kind::kJoin);
  for (int i = 0; i < 14; ++i) {
    h.Submit(JoinQuery(spe::WindowSpec::Tumbling(40 + 7 * i)), 0);
  }
  h.Flush(0);
  for (int i = 0; i < 30; ++i) {
    h.Push(0, 2 + i * 6, Row{i % 3, i});
    h.Push(1, 3 + i * 6, Row{i % 3, 100 - i});
  }
  h.Watermark(400);
  h.FinishAndVerify();
}

TEST(AStreamE2ETest, BatchedChangelogMixedCreateDelete) {
  // One changelog carrying deletions AND creations (the session batches
  // up to 100 requests): deleted slots are reused within the same batch.
  E2EHarness h(Kind::kAggregation);
  const QueryId q1 = h.Create(AggQuery(spe::WindowSpec::Tumbling(40)), 0);
  const QueryId q2 = h.Create(AggQuery(spe::WindowSpec::Tumbling(60)), 0);
  for (int i = 0; i < 10; ++i) h.Push(0, 3 + i * 7, Row{1, i});
  h.Watermark(80);
  // Batch: delete q1 and q2, create two new queries — all in ONE flush.
  h.Cancel(q1, 100);
  h.Cancel(q2, 100);
  h.Submit(AggQuery(spe::WindowSpec::Tumbling(30)), 100);
  h.Submit(AggQuery(spe::WindowSpec::Sliding(50, 25)), 100);
  h.Flush(100);
  for (int i = 0; i < 12; ++i) h.Push(0, 105 + i * 6, Row{1, 100 + i});
  h.Watermark(300);
  h.FinishAndVerify();
}

TEST(AStreamE2ETest, WatermarkJumpTriggersManyWindows) {
  // A large watermark jump must trigger every completed window exactly
  // once, in order.
  E2EHarness h(Kind::kAggregation);
  const QueryId q = h.Create(AggQuery(spe::WindowSpec::Tumbling(10)), 0);
  for (int i = 0; i < 50; ++i) h.Push(0, 2 + i * 4, Row{1, 1});
  h.Watermark(1000);  // jump past ~20 windows at once
  h.FinishAndVerify();
  EXPECT_GT(E2EHarness::CountRows(h.outputs().at(q)), 15);
}

TEST(AStreamE2ETest, QueryWithNoMatchingDataEmitsNothing) {
  E2EHarness h(Kind::kAggregation);
  const QueryId q = h.Create(
      AggQuery(spe::WindowSpec::Tumbling(50),
               {Predicate{1, CmpOp::kGt, 1'000'000}}),  // matches nothing
      0);
  for (int i = 0; i < 20; ++i) h.Push(0, 3 + i * 5, Row{1, i});
  h.Watermark(200);
  h.FinishAndVerify();
  EXPECT_EQ(h.outputs().count(q) ? E2EHarness::CountRows(h.outputs().at(q))
                                 : 0,
            0);
}

TEST(AStreamE2ETest, ImmediateDeleteBeforeAnyData) {
  E2EHarness h(Kind::kAggregation);
  const QueryId q = h.Create(AggQuery(spe::WindowSpec::Tumbling(50)), 0);
  h.Delete(q, 5);  // deleted before any window could complete
  for (int i = 0; i < 10; ++i) h.Push(0, 10 + i * 5, Row{1, i});
  h.Watermark(200);
  h.FinishAndVerify();
}

TEST(AStreamE2ETest, OutOfOrderWithinWatermarkBounds) {
  // Event-time processing (Sec. 3.3): tuples may arrive out of order as
  // long as they are not late w.r.t. the watermark; results must be
  // identical to the in-order case (the reference is order-blind).
  E2EHarness h(Kind::kAggregation);
  h.Create(AggQuery(spe::WindowSpec::Sliding(60, 30)), 0);
  Rng rng(77);
  TimestampMs watermark = 0;
  for (int batch = 0; batch < 10; ++batch) {
    // A scrambled batch of tuples in (watermark, watermark + 50].
    std::vector<TimestampMs> times;
    for (int i = 0; i < 12; ++i) {
      times.push_back(watermark + 1 + rng.UniformInt(0, 49));
    }
    for (TimestampMs t : times) {
      h.Push(0, t, Row{t % 3, t % 17});
    }
    watermark += 50;
    h.Watermark(watermark);
  }
  h.FinishAndVerify();
}

TEST(AStreamE2ETest, OutOfOrderJoinAcrossStreams) {
  E2EHarness h(Kind::kJoin);
  h.Create(JoinQuery(spe::WindowSpec::Tumbling(40)), 0);
  Rng rng(88);
  TimestampMs watermark = 0;
  for (int batch = 0; batch < 8; ++batch) {
    for (int i = 0; i < 10; ++i) {
      const TimestampMs t = watermark + 1 + rng.UniformInt(0, 59);
      if (rng.Bernoulli(0.5)) {
        h.Push(0, t, Row{t % 4, t});
      } else {
        h.Push(1, t, Row{t % 4, 100 + t});
      }
    }
    watermark += 60;
    h.Watermark(watermark);
  }
  h.FinishAndVerify();
}

TEST(AStreamE2ETest, AggDeleteRecreateManyCycles) {
  E2EHarness h(Kind::kAggregation);
  TimestampMs t = 0;
  std::vector<QueryId> ids;
  for (int cycle = 0; cycle < 5; ++cycle) {
    const QueryId q =
        h.Create(AggQuery(spe::WindowSpec::Tumbling(20)), t);
    ids.push_back(q);
    for (int i = 0; i < 6; ++i) {
      h.Push(0, t + 3 + i * 8, Row{1, cycle * 10 + i});
    }
    t += 50;
    h.Watermark(t);
    h.Delete(q, t + 1);
    t += 10;
  }
  h.Watermark(t + 100);
  h.FinishAndVerify();
}

}  // namespace
}  // namespace astream::core
