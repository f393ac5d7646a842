#include "shard/router.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "core/astream.h"

namespace astream::shard {
namespace {

using core::AStreamJob;
using core::CmpOp;
using core::Predicate;
using core::QueryDescriptor;
using core::QueryId;
using core::QueryKind;
using spe::Row;

JobConfig InlineConfig(ManualClock* clock, int shards, int slots = 8) {
  JobConfig config;
  config.job.topology = AStreamJob::TopologyKind::kJoin;
  config.job.parallelism = 1;
  config.job.clock = clock;
  config.job.session.batch_size = 1;
  config.shards = shards;
  config.slots = slots;
  return config;
}

QueryDescriptor PassAllSelection() {
  QueryDescriptor d;
  d.kind = QueryKind::kSelection;
  d.select_a = {Predicate{1, CmpOp::kGt, -1}};  // values are >= 0
  return d;
}

std::unique_ptr<ShardRouter> MakeStarted(JobConfig config) {
  auto router = std::move(ShardRouter::Create(std::move(config))).value();
  EXPECT_TRUE(router->Start().ok());
  return router;
}

TEST(ShardRouterTest, RoutesByKeyAndDeliversEachRowOnce) {
  ManualClock clock;
  auto router = MakeStarted(InlineConfig(&clock, 4));
  std::map<QueryId, std::multiset<std::pair<spe::Value, spe::Value>>> outputs;
  router->SetResultCallback([&](QueryId id, const spe::Record& r) {
    outputs[id].insert({r.row.At(0), r.row.At(1)});
  });
  auto id = router->Submit(PassAllSelection());
  ASSERT_TRUE(id.ok());
  router->Pump(true);

  std::multiset<std::pair<spe::Value, spe::Value>> pushed;
  for (spe::Value key = 0; key <= 20; ++key) {
    clock.SetMs(10 + key);
    ASSERT_EQ(router->Push(StreamId::kA, 10 + key, Row{key, key * 3}),
              core::PushResult::kAccepted);
    pushed.insert({key, key * 3});
  }
  EXPECT_TRUE(router->FinishAndWait().ok());
  // Every row delivered exactly once — routed to one shard, emitted by
  // its owner, never duplicated by the fan-out.
  EXPECT_EQ(outputs[*id], pushed);
}

TEST(ShardRouterTest, FanOutAssignsOneConsistentId) {
  ManualClock clock;
  auto router = MakeStarted(InlineConfig(&clock, 3));
  auto first = router->Submit(PassAllSelection());
  ASSERT_TRUE(first.ok());
  router->Pump(true);
  auto second = router->Submit(PassAllSelection());
  ASSERT_TRUE(second.ok());
  router->Pump(true);
  // Deterministic sessions: ids advance in lock-step on every shard.
  EXPECT_EQ(*second, *first + 1);
  EXPECT_TRUE(router->Stop().ok());
}

TEST(ShardRouterTest, IdDivergenceRollsBackAndReportsInternal) {
  ManualClock clock;
  auto router = MakeStarted(InlineConfig(&clock, 2));
  // Desynchronize shard 1's session behind the router's back: its next
  // query id is now ahead of shard 0's.
  auto rogue = router->shard(1)->job()->Submit(PassAllSelection());
  ASSERT_TRUE(rogue.ok());
  router->shard(1)->job()->Pump(true);

  auto id = router->Submit(PassAllSelection());
  ASSERT_FALSE(id.ok());
  EXPECT_NE(id.status().ToString().find("assigned"), std::string::npos)
      << id.status().ToString();
  // The rollback succeeded (the pending creations were dropped), so the
  // router is NOT poisoned — no query was left half-registered.
  EXPECT_TRUE(router->Health().ok());
  EXPECT_TRUE(router->Stop().ok());
}

TEST(ShardRouterTest, CancelOfUnknownIdRejectsCleanly) {
  ManualClock clock;
  auto router = MakeStarted(InlineConfig(&clock, 2));
  // Shard 0 rejects first; nothing was applied anywhere.
  EXPECT_FALSE(router->Cancel(999).ok());
  EXPECT_TRUE(router->Health().ok());
  EXPECT_TRUE(router->Stop().ok());
}

TEST(ShardRouterTest, CancelDivergencePoisonsTheRouter) {
  ManualClock clock;
  auto router = MakeStarted(InlineConfig(&clock, 2));
  // A query that exists only on shard 0: shard 0 accepts the cancel,
  // shard 1 rejects it — the fan-out cannot be undone.
  auto rogue = router->shard(0)->job()->Submit(PassAllSelection());
  ASSERT_TRUE(rogue.ok());
  router->shard(0)->job()->Pump(true);

  const Status s = router->Cancel(*rogue);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(router->Health().ok());
  // Every subsequent control operation reports the poisoned state.
  EXPECT_FALSE(router->Submit(PassAllSelection()).ok());
  EXPECT_TRUE(router->Stop().ok());
}

TEST(ShardRouterTest, KillRequiresThreadedEngine) {
  ManualClock clock;
  auto router = MakeStarted(InlineConfig(&clock, 2));
  const Status s = router->KillShard(1, Status::Internal("chaos"));
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("threaded"), std::string::npos);
  EXPECT_TRUE(router->Stop().ok());
}

TEST(ShardRouterTest, ReshardValidation) {
  ManualClock clock;
  // 2 shards over 2 slots: each shard owns exactly one slot.
  auto router = MakeStarted(InlineConfig(&clock, 2, /*slots=*/2));
  EXPECT_FALSE(router->SplitShard(0).ok());  // nothing to split
  EXPECT_FALSE(router->MoveShard(5).ok());   // no such shard
  EXPECT_FALSE(router->SplitShard(-1).ok());
  EXPECT_TRUE(router->Stop().ok());
}

TEST(ShardRouterTest, SplitAndMoveUpdatePlanAndPause) {
  ManualClock clock;
  auto router = MakeStarted(InlineConfig(&clock, 2, /*slots=*/8));
  const auto before = router->plan();
  ASSERT_TRUE(router->SplitShard(0).ok());
  EXPECT_EQ(router->num_shards(), 3);
  EXPECT_GE(router->last_reshard_pause_ms(), 0);
  const auto after_split = router->plan();
  EXPECT_EQ(after_split->version, before->version + 1);
  EXPECT_FALSE(after_split->SlotsOwnedBy(2).empty());

  ASSERT_TRUE(router->MoveShard(1).ok());
  EXPECT_EQ(router->num_shards(), 3);
  EXPECT_EQ(router->plan()->version, after_split->version + 1);
  EXPECT_TRUE(router->Health().ok());
  EXPECT_TRUE(router->Stop().ok());
}

QueryDescriptor SlidingJoin() {
  QueryDescriptor d;
  d.kind = QueryKind::kJoin;
  d.window = spe::WindowSpec::Sliding(40, 20);
  return d;
}

// After a split both halves hold the full pre-split state and re-emit
// every open window; the egress filter drops the non-owner's copy, and
// the deployment QoS must count each delivered row exactly once — in the
// total, per query, and in the latency sample count.
TEST(ShardRouterTest, QosCountsEachDeliveredRowOnceAcrossSplit) {
  ManualClock clock;
  auto router = MakeStarted(InlineConfig(&clock, 2, /*slots=*/8));
  std::map<QueryId, int64_t> delivered;
  router->SetResultCallback(
      [&](QueryId id, const spe::Record&) { ++delivered[id]; });
  auto join = router->Submit(SlidingJoin());
  ASSERT_TRUE(join.ok());
  auto selection = router->Submit(PassAllSelection());
  ASSERT_TRUE(selection.ok());
  router->Pump(true);

  auto push_round = [&](TimestampMs t0) {
    for (spe::Value key = 0; key < 12; ++key) {
      clock.SetMs(t0 + key);
      router->Push(StreamId::kA, t0 + key, Row{key, key});
      router->Push(StreamId::kB, t0 + key, Row{key, key + 100});
    }
  };
  push_round(10);
  ASSERT_TRUE(router->SplitShard(0).ok());  // windows still open
  push_round(30);
  clock.SetMs(200);
  router->PushWatermark(200);
  ASSERT_TRUE(router->FinishAndWait().ok());

  int64_t total = 0;
  for (const auto& [id, n] : delivered) total += n;
  ASSERT_GT(delivered[*join], 0);
  const core::QosMonitor::Snapshot qos = router->QosSnapshot();
  EXPECT_EQ(qos.total_outputs, total);
  EXPECT_EQ(qos.outputs_per_query, delivered);
  EXPECT_EQ(qos.event_time_latency.count(), total);
  // The join emitted nothing before the split, so the shards' own
  // (pre-filter) monitors hold every copy both halves emitted: more than
  // were delivered, i.e. the filter did suppress duplicates.
  int64_t join_pre_filter = 0;
  for (int i = 0; i < router->num_shards(); ++i) {
    join_pre_filter += router->shard(i)->QosSnapshot().outputs_per_query[*join];
  }
  EXPECT_GT(join_pre_filter, delivered[*join]);
}

// With batched edges each router call hands egress one run per join
// trigger, and after a split both halves re-emit every open window: each
// shard's runs mix keys it owns with keys the other half owns. The slot
// filter must pass each row exactly once across shards, and the merged
// QoS must count exactly the rows the callback received — with inline
// shards and with pump threads delivering concurrently.
class ShardEgressTest : public ::testing::TestWithParam<bool> {};

TEST_P(ShardEgressTest, MixedOwnershipRunsDeliverEachRowOnceAfterSplit) {
  using Rows = std::map<QueryId, std::multiset<std::vector<spe::Value>>>;
  const bool shard_threads = GetParam();
  auto run = [shard_threads](int shards, bool split,
                             core::QosMonitor::Snapshot* qos,
                             std::map<TimestampMs, std::set<int>>* owners) {
    ManualClock clock;
    JobConfig config = InlineConfig(&clock, shards, /*slots=*/8);
    config.job.batch_size = 64;
    config.shard_threads = shard_threads;
    auto router = MakeStarted(std::move(config));
    std::mutex mu;
    Rows delivered;
    std::vector<std::pair<TimestampMs, spe::Value>> keys;
    router->SetResultCallback([&](QueryId id, const spe::Record& r) {
      std::vector<spe::Value> row{r.event_time};
      for (size_t c = 0; c < r.row.NumColumns(); ++c) {
        row.push_back(r.row.At(c));
      }
      std::lock_guard<std::mutex> lock(mu);
      delivered[id].insert(std::move(row));
      keys.emplace_back(r.event_time, r.row.key());
    });
    EXPECT_TRUE(router->Submit(SlidingJoin()).ok());
    EXPECT_TRUE(router->Submit(PassAllSelection()).ok());
    router->Pump(true);
    auto push_round = [&](TimestampMs t0) {
      for (spe::Value key = 0; key < 24; ++key) {
        clock.SetMs(t0 + key / 2);
        router->Push(StreamId::kA, t0 + key / 2, Row{key, key});
        router->Push(StreamId::kB, t0 + key / 2, Row{key, key + 100});
      }
    };
    push_round(10);
    if (split) {
      EXPECT_TRUE(router->SplitShard(0).ok());  // windows still open
    }
    push_round(30);
    push_round(50);
    clock.SetMs(200);
    router->PushWatermark(200);
    EXPECT_TRUE(router->FinishAndWait().ok());
    if (qos != nullptr) *qos = router->QosSnapshot();
    std::lock_guard<std::mutex> lock(mu);
    if (owners != nullptr) {
      for (const auto& [t, key] : keys) {
        (*owners)[t].insert(router->plan()->OwnerOfKey(key));
      }
    }
    return delivered;
  };

  const Rows expected = run(1, false, nullptr, nullptr);
  core::QosMonitor::Snapshot qos;
  std::map<TimestampMs, std::set<int>> owners;
  const Rows delivered = run(2, true, &qos, &owners);
  EXPECT_EQ(delivered, expected);

  // Some window's result rows belong to both halves of the split shard:
  // each half emitted them in one run and kept only its own.
  bool mixed = false;
  for (const auto& [t, shards] : owners) mixed |= shards.size() > 1;
  EXPECT_TRUE(mixed);

  std::map<QueryId, int64_t> per_query;
  int64_t total = 0;
  for (const auto& [id, rows] : delivered) {
    per_query[id] = static_cast<int64_t>(rows.size());
    total += per_query[id];
  }
  EXPECT_EQ(qos.total_outputs, total);
  EXPECT_EQ(qos.outputs_per_query, per_query);
  EXPECT_EQ(qos.event_time_latency.count(), total);
}

INSTANTIATE_TEST_SUITE_P(ShardThreads, ShardEgressTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Pumped" : "Inline";
                         });

// A callback swapped on a running deployment with threaded shards reaches
// every row pushed after the swap; rows pushed before it arrive exactly
// once, at one of the two callbacks.
TEST(ShardRouterTest, CallbackSwapReachesEveryLaterRowOnThreadedShards) {
  ManualClock clock;
  JobConfig config = InlineConfig(&clock, 3);
  config.shard_threads = true;
  auto router = MakeStarted(std::move(config));
  auto id = router->Submit(PassAllSelection());
  ASSERT_TRUE(id.ok());
  router->Pump(true);

  std::mutex mu;
  std::multiset<spe::Value> old_rows;
  std::multiset<spe::Value> new_rows;
  router->SetResultCallback([&](QueryId, const spe::Record& r) {
    std::lock_guard<std::mutex> lock(mu);
    old_rows.insert(r.row.At(1));
  });
  constexpr int kRows = 300;
  for (int i = 0; i < kRows; ++i) {
    clock.SetMs(10 + i);
    router->Push(StreamId::kA, 10 + i, Row{i % 17, 1000 + i});
  }
  router->SetResultCallback([&](QueryId, const spe::Record& r) {
    std::lock_guard<std::mutex> lock(mu);
    new_rows.insert(r.row.At(1));
  });
  for (int i = 0; i < kRows; ++i) {
    clock.SetMs(10 + kRows + i);
    router->Push(StreamId::kA, 10 + kRows + i, Row{i % 17, 2000 + i});
  }
  ASSERT_TRUE(router->FinishAndWait().ok());

  std::lock_guard<std::mutex> lock(mu);
  for (int i = 0; i < kRows; ++i) {
    EXPECT_EQ(new_rows.count(2000 + i), 1u) << "row " << i;
    EXPECT_EQ(old_rows.count(2000 + i), 0u) << "row " << i;
    EXPECT_EQ(old_rows.count(1000 + i) + new_rows.count(1000 + i), 1u)
        << "row " << i;
  }
}

// Every OperatorStats field, for the field-wise comparison below.
constexpr int64_t AStreamJob::OperatorStats::*kStatFields[] = {
    &AStreamJob::OperatorStats::queryset_nanos,
    &AStreamJob::OperatorStats::fanout_nanos,
    &AStreamJob::OperatorStats::bitset_ops,
    &AStreamJob::OperatorStats::join_pairs_computed,
    &AStreamJob::OperatorStats::join_pairs_reused,
    &AStreamJob::OperatorStats::records_late,
    &AStreamJob::OperatorStats::selection_records_in,
    &AStreamJob::OperatorStats::selection_records_out,
    &AStreamJob::OperatorStats::router_records_out,
    &AStreamJob::OperatorStats::router_rows_shared,
    &AStreamJob::OperatorStats::router_rows_copied,
    &AStreamJob::OperatorStats::state_arena_bytes,
    &AStreamJob::OperatorStats::reload_saves,
    &AStreamJob::OperatorStats::arrange_memo_hits,
    &AStreamJob::OperatorStats::arrange_memo_misses,
    &AStreamJob::OperatorStats::arrange_memo_bytes,
    &AStreamJob::OperatorStats::factor_rewrites,
    &AStreamJob::OperatorStats::factor_reuses,
    &AStreamJob::OperatorStats::factor_fallbacks,
    &AStreamJob::OperatorStats::mjoin_chains_computed,
    &AStreamJob::OperatorStats::mjoin_chains_reused,
    &AStreamJob::OperatorStats::subjoins_built,
    &AStreamJob::OperatorStats::subjoins_attached,
    &AStreamJob::OperatorStats::subjoin_nodes,
};
static_assert(sizeof(kStatFields) / sizeof(kStatFields[0]) *
                      sizeof(int64_t) ==
                  sizeof(AStreamJob::OperatorStats),
              "list every OperatorStats field");

TEST(ShardRouterTest, CollectStatsSumsEveryFieldAcrossShards) {
  ManualClock clock;
  auto router = MakeStarted(InlineConfig(&clock, 2));
  QueryDescriptor narrow = SlidingJoin();
  QueryDescriptor wide = SlidingJoin();
  wide.window = spe::WindowSpec::Sliding(80, 20);
  ASSERT_TRUE(router->Submit(narrow).ok());
  ASSERT_TRUE(router->Submit(wide).ok());
  router->Pump(true);
  for (int i = 0; i < 200; ++i) {
    clock.SetMs(10 + i);
    router->Push(StreamId::kA, 10 + i, Row{i % 9, i});
    router->Push(StreamId::kB, 10 + i, Row{i % 9, i + 1});
    if (i % 25 == 24) router->PushWatermark(i);
  }
  ASSERT_TRUE(router->FinishAndWait().ok());

  const AStreamJob::OperatorStats merged = router->CollectStats();
  const AStreamJob::OperatorStats s0 = router->shard(0)->CollectStats();
  const AStreamJob::OperatorStats s1 = router->shard(1)->CollectStats();
  for (size_t f = 0; f < std::size(kStatFields); ++f) {
    const auto field = kStatFields[f];
    EXPECT_EQ(merged.*field, s0.*field + s1.*field) << "field " << f;
  }
  // The comparison is not vacuous: memo and selection fields are live.
  EXPECT_GT(merged.arrange_memo_misses, 0);
  EXPECT_EQ(merged.selection_records_in, 400);
}

}  // namespace
}  // namespace astream::shard
