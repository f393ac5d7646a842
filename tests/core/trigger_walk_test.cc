// One group walk per trigger (DESIGN.md §12.1): a trigger shared by many
// time-window queries, with slots past the 64-bit inline tag word and
// churn that reuses slots, must emit for every query exactly the rows the
// offline reference computes, in the order the per-query walk emitted
// them: windows by (end, start), the queries of one window by slot, and
// each query's keys ascending.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "core/astream.h"
#include "harness/reference.h"
#include "tests/core/e2e_harness.h"

namespace astream::core {
namespace {

using spe::Row;

constexpr int kQueries = 80;  // slots 0..79: two tag words
constexpr TimestampMs kSlide = 10;

/// Query i: one of six window lengths over one slide, one of five
/// aggregate kinds, and a selection threshold, so the composed groups
/// carry many different tag sets.
QueryDescriptor Query(int i) {
  QueryDescriptor d;
  d.kind = QueryKind::kAggregation;
  d.window = spe::WindowSpec::Sliding(kSlide * (1 + i % 6), kSlide);
  static constexpr spe::AggKind kKinds[] = {
      spe::AggKind::kSum, spe::AggKind::kCount, spe::AggKind::kMin,
      spe::AggKind::kMax, spe::AggKind::kAvg};
  d.agg = {kKinds[i % 5], 1};
  d.select_a = {Predicate{1, CmpOp::kLt, 10 + (i * 37) % 90}};
  return d;
}

/// One delivered row, as the run callback saw it.
struct Delivered {
  QueryId id = -1;
  TimestampMs event_time = 0;
  spe::Value key = 0;
  spe::Value value = 0;
  int slot = -1;
};

struct Outcome {
  std::vector<Delivered> rows;
  std::map<QueryId, harness::QueryLifecycle> lifecycles;
};

Outcome RunFleet(bool sharing) {
  E2EHarness h(AStreamJob::TopologyKind::kAggregation, 1,
               StoreMode::kGrouped, true, [sharing](AStreamJob::Options* o) {
                 o->share_arrangements = sharing;
               });
  Outcome outcome;
  h.job()->SetResultCallback([&outcome](std::span<const spe::Record> run) {
    for (const spe::Record& r : run) {
      outcome.rows.push_back({r.channel, r.event_time, r.row.key(),
                              r.row.At(1), r.tags.HighestBit()});
    }
  });
  std::vector<QueryId> ids;
  for (int i = 0; i < kQueries; ++i) ids.push_back(h.Submit(Query(i), 0));
  h.Flush(0);
  TimestampMs t = 2;
  auto push_until = [&](TimestampMs end, int salt) {
    for (; t < end; t += 2) {
      h.Push(0, t, Row{t % 7, (t * 13 + salt) % 100});
    }
  };
  push_until(300, 0);
  h.Watermark(300);
  // Churn: cancel queries on both tag words, then create as many new ones;
  // they take the freed slots.
  for (int i = 3; i < kQueries; i += 7) h.Cancel(ids[i], 305);
  h.Flush(305);
  push_until(500, 11);
  h.Watermark(500);
  for (int i = 0; i < 12; ++i) h.Submit(Query(kQueries + i), 505);
  h.Flush(505);
  push_until(900, 23);
  h.Watermark(900);
  EXPECT_TRUE(h.job()->FinishAndWait().ok());

  outcome.lifecycles = h.lifecycles();
  std::map<QueryId, harness::RowMultiset> actual;
  for (const Delivered& d : outcome.rows) {
    harness::AddToMultiset(&actual[d.id], d.event_time,
                           Row{d.key, d.value});
  }
  for (const auto& [id, lifecycle] : outcome.lifecycles) {
    EXPECT_EQ(actual[id], harness::EvaluateReference(lifecycle, h.events()))
        << "query " << id << " (" << lifecycle.desc.ToString() << ")";
  }
  return outcome;
}

class TriggerWalkTest : public ::testing::TestWithParam<bool> {};

TEST_P(TriggerWalkTest, EveryQueryMatchesTheReferenceInTriggerOrder) {
  const Outcome outcome = RunFleet(GetParam());
  ASSERT_FALSE(outcome.rows.empty());

  // The fleet reaches the second tag word, a reused slot serves a second
  // query, and one window result serves many queries.
  std::map<int, std::set<QueryId>> queries_of_slot;
  std::map<std::pair<TimestampMs, TimestampMs>, std::set<QueryId>> sharing;
  for (const Delivered& d : outcome.rows) {
    queries_of_slot[d.slot].insert(d.id);
    const TimestampMs length =
        outcome.lifecycles.at(d.id).desc.window.length;
    sharing[{d.event_time, length}].insert(d.id);
  }
  EXPECT_GE(queries_of_slot.rbegin()->first, 64);
  size_t reused = 0;
  for (const auto& [slot, ids] : queries_of_slot) {
    if (ids.size() > 1) ++reused;
  }
  EXPECT_GT(reused, 0u);
  size_t widest = 0;
  for (const auto& [window, ids] : sharing) {
    widest = std::max(widest, ids.size());
  }
  EXPECT_GE(widest, 10u);

  // Emission order: windows by (end, start), then slot, then key.
  auto order = [&](const Delivered& d) {
    const TimestampMs end = d.event_time + 1;
    const TimestampMs start =
        end - outcome.lifecycles.at(d.id).desc.window.length;
    return std::make_tuple(end, start, d.slot, d.key);
  };
  for (size_t i = 1; i < outcome.rows.size(); ++i) {
    ASSERT_LT(order(outcome.rows[i - 1]), order(outcome.rows[i]))
        << "row " << i << " of query " << outcome.rows[i].id
        << " is out of trigger order";
  }
}

TEST(TriggerWalkSharingTest, SharingOnAndOffEmitTheSameSequence) {
  const Outcome on = RunFleet(true);
  const Outcome off = RunFleet(false);
  ASSERT_EQ(on.rows.size(), off.rows.size());
  for (size_t i = 0; i < on.rows.size(); ++i) {
    const Delivered& a = on.rows[i];
    const Delivered& b = off.rows[i];
    ASSERT_EQ(std::tie(a.id, a.event_time, a.key, a.value, a.slot),
              std::tie(b.id, b.event_time, b.key, b.value, b.slot))
        << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sharing, TriggerWalkTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "On" : "Off";
                         });

}  // namespace
}  // namespace astream::core
