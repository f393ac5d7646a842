#include "core/slice_store.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "storage/compactor.h"
#include "storage/spill_space.h"

namespace astream::core {
namespace {

using spe::Row;
using spe::Value;

QuerySet Bits(std::initializer_list<int> bits) {
  QuerySet b;
  for (int i : bits) b.Set(i);
  return b;
}

/// Collects join outputs into a canonical multiset for comparison.
std::map<std::string, int> JoinToMultiset(const TupleStore& a,
                                          const TupleStore& b,
                                          const QuerySet& mask) {
  std::map<std::string, int> out;
  TupleStore::Join(a, b, mask,
                   [&](const Row& l, const Row& r, QuerySet tags) {
                     std::string key = l.ToString() + "|" + r.ToString() +
                                       "|" + tags.ToString(16);
                     ++out[key];
                   });
  return out;
}

TEST(TupleStoreTest, GroupedJoinBasics) {
  TupleStore a(StoreMode::kGrouped);
  TupleStore b(StoreMode::kGrouped);
  a.Insert(Row{1, 10}, Bits({0}));
  a.Insert(Row{2, 20}, Bits({1}));
  b.Insert(Row{1, 30}, Bits({0, 1}));
  b.Insert(Row{2, 40}, Bits({0}));  // shares no query with A's key-2 tuple

  int emitted = 0;
  TupleStore::Join(a, b, QuerySet::AllSet(2),
                   [&](const Row& l, const Row& r, QuerySet tags) {
                     ++emitted;
                     EXPECT_EQ(l.key(), r.key());
                     EXPECT_TRUE(tags.Any());
                   });
  // Only (1,10)x(1,30) with tags {0}; A(2,20){1} x B(2,40){0} disjoint.
  EXPECT_EQ(emitted, 1);
}

TEST(TupleStoreTest, MaskFiltersSlotAcrossChange) {
  TupleStore a(StoreMode::kGrouped);
  TupleStore b(StoreMode::kGrouped);
  a.Insert(Row{1, 1}, Bits({0, 1}));
  b.Insert(Row{1, 2}, Bits({0, 1}));
  QuerySet mask = QuerySet::AllSet(2);
  mask.Reset(1);  // slot 1 changed between the slices
  int emitted = 0;
  TupleStore::Join(a, b, mask,
                   [&](const Row&, const Row&, QuerySet tags) {
                     ++emitted;
                     EXPECT_TRUE(tags.Test(0));
                     EXPECT_FALSE(tags.Test(1));
                   });
  EXPECT_EQ(emitted, 1);
}

TEST(TupleStoreTest, ConvertPreservesTuples) {
  TupleStore s(StoreMode::kGrouped);
  s.Insert(Row{1, 1}, Bits({0}));
  s.Insert(Row{1, 2}, Bits({1}));
  s.Insert(Row{2, 3}, Bits({0, 1}));
  EXPECT_EQ(s.NumTuples(), 3u);
  EXPECT_EQ(s.NumGroups(), 3u);
  s.ConvertTo(StoreMode::kList);
  EXPECT_EQ(s.NumTuples(), 3u);
  int n = 0;
  s.ForEach([&](const Row&, const QuerySet&) { ++n; });
  EXPECT_EQ(n, 3);
  s.ConvertTo(StoreMode::kGrouped);
  EXPECT_EQ(s.NumGroups(), 3u);
}

TEST(TupleStoreTest, AvgGroupSize) {
  TupleStore s(StoreMode::kGrouped);
  s.Insert(Row{1, 1}, Bits({0}));
  s.Insert(Row{2, 2}, Bits({0}));
  s.Insert(Row{3, 3}, Bits({0}));
  s.Insert(Row{4, 4}, Bits({1}));
  EXPECT_EQ(s.NumGroups(), 2u);
  EXPECT_DOUBLE_EQ(s.AvgGroupSize(), 2.0);
}

TEST(TupleStoreTest, SerializeRoundTripBothModes) {
  for (StoreMode mode : {StoreMode::kGrouped, StoreMode::kList}) {
    TupleStore s(mode);
    s.Insert(Row{1, 5}, Bits({0, 2}));
    s.Insert(Row{2, 6}, Bits({1}));
    spe::StateWriter writer;
    s.Serialize(&writer);
    spe::StateReader reader(writer.TakeBuffer());
    TupleStore restored = TupleStore::Deserialize(&reader);
    EXPECT_EQ(restored.mode(), mode);
    EXPECT_EQ(restored.NumTuples(), 2u);
  }
}

/// Property: grouped and list layouts (and mixed pairs) produce identical
/// join results — Sec. 3.2.3's data-structure switch must be lossless.
class StoreModeEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StoreModeEquivalence, JoinResultsIdenticalAcrossLayouts) {
  const auto [seed, num_queries] = GetParam();
  Rng rng(seed);
  TupleStore ag(StoreMode::kGrouped), al(StoreMode::kList);
  TupleStore bg(StoreMode::kGrouped), bl(StoreMode::kList);
  for (int i = 0; i < 60; ++i) {
    const Value key = rng.UniformInt(0, 5);
    Row row{key, rng.UniformInt(0, 100)};
    QuerySet tags;
    for (int q = 0; q < num_queries; ++q) {
      if (rng.Bernoulli(0.4)) tags.Set(q);
    }
    if (tags.None()) tags.Set(0);
    if (i % 2 == 0) {
      ag.Insert(row, tags);
      al.Insert(row, tags);
    } else {
      bg.Insert(row, tags);
      bl.Insert(row, tags);
    }
  }
  QuerySet mask = QuerySet::AllSet(num_queries);
  for (int q = 0; q < num_queries; ++q) {
    if (rng.Bernoulli(0.2)) mask.Reset(q);
  }
  const auto gg = JoinToMultiset(ag, bg, mask);
  EXPECT_EQ(gg, JoinToMultiset(al, bl, mask));
  EXPECT_EQ(gg, JoinToMultiset(ag, bl, mask));
  EXPECT_EQ(gg, JoinToMultiset(al, bg, mask));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, StoreModeEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(1, 3, 8, 16)));

/// A spilled join side and its twin that keeps the same tuples resident.
struct SpilledSide {
  TupleStore spilled;
  TupleStore resident;
};

QuerySet RandomTags(Rng* rng, int num_queries) {
  QuerySet tags;
  for (int q = 0; q < num_queries; ++q) {
    if (rng->Bernoulli(0.5)) tags.Set(q);
  }
  if (tags.None()) tags.Set(rng->UniformInt(0, num_queries - 1));
  return tags;
}

/// `runs` spills of random tuples, then a resident tail of `tail` tuples.
SpilledSide MakeSpilledSide(Rng* rng, storage::SpillSpace* space,
                            storage::Compactor* compactor, StoreMode mode,
                            int runs, int tail, int num_queries) {
  SpilledSide side{TupleStore(mode), TupleStore(mode)};
  side.spilled.BindSpill(space);
  side.spilled.BindCompactor(compactor);
  auto insert = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const Row row{rng->UniformInt(0, 15), rng->UniformInt(0, 999)};
      const QuerySet tags = RandomTags(rng, num_queries);
      side.spilled.Insert(row, tags);
      side.resident.Insert(row, tags);
    }
  };
  for (int r = 0; r < runs; ++r) {
    insert(static_cast<int>(rng->UniformInt(20, 60)));
    EXPECT_GT(side.spilled.SpillToDisk(), 0u);
  }
  insert(tail);
  EXPECT_EQ(side.spilled.HasSpill(), runs > 0);
  EXPECT_EQ(side.spilled.NumResidentTuples(), static_cast<size_t>(tail));
  return side;
}

TupleStore RandomResidentStore(Rng* rng, StoreMode mode, int n,
                               int num_queries) {
  TupleStore store(mode);
  for (int i = 0; i < n; ++i) {
    // Keys 8..23 overlap the spilled side's 0..15 in half, so some spilled
    // entries hit the resident index and some miss it.
    store.Insert(Row{rng->UniformInt(8, 23), rng->UniformInt(0, 999)},
                 RandomTags(rng, num_queries));
  }
  return store;
}

std::unique_ptr<storage::SpillSpace> SmallBlockSpace() {
  auto space = storage::SpillSpace::Create("");
  EXPECT_TRUE(space.ok()) << space.status().ToString();
  storage::SpillSpace::WriterOptions wo;
  wo.block_bytes = 256;  // several blocks per run
  space.value()->SetWriterOptions(wo);
  return std::move(space).value();
}

StoreMode RandomMode(Rng* rng) {
  return rng->Bernoulli(0.5) ? StoreMode::kList : StoreMode::kGrouped;
}

/// Property: a join whose one side holds 0-3 spilled runs plus a resident
/// tail (the probe path) emits exactly the (left, right, tags) multiset of
/// the same tuples held fully resident, with the spilled side on either
/// port, in either layout, and under masks with cleared bits.
TEST(SliceStoreJoinTest, ProbeMatchesResidentJoin) {
  auto space = SmallBlockSpace();
  int probed = 0;  // seeds whose spilled side has runs and outputs
  for (int seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const int num_queries = static_cast<int>(rng.UniformInt(1, 8));
    const int runs = static_cast<int>(rng.UniformInt(0, 3));
    const int tail = static_cast<int>(rng.UniformInt(0, 30));
    SpilledSide side =
        MakeSpilledSide(&rng, space.get(), nullptr, RandomMode(&rng), runs,
                        tail, num_queries);
    const TupleStore other =
        RandomResidentStore(&rng, RandomMode(&rng), 50, num_queries);
    QuerySet mask = QuerySet::AllSet(static_cast<size_t>(num_queries));
    for (int q = 0; q < num_queries; ++q) {
      if (rng.Bernoulli(0.25)) mask.Reset(q);
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + ", runs " +
                 std::to_string(runs));
    const auto want_left = JoinToMultiset(side.resident, other, mask);
    const auto want_right = JoinToMultiset(other, side.resident, mask);
    EXPECT_EQ(JoinToMultiset(side.spilled, other, mask), want_left);
    EXPECT_EQ(JoinToMultiset(other, side.spilled, mask), want_right);
    if (runs > 0 && !want_left.empty()) ++probed;
  }
  EXPECT_GE(probed, 10);
}

/// Runs on both sides keep the sorted merge; its output matches too.
TEST(SliceStoreJoinTest, RunsOnBothSidesMatchResidentJoin) {
  auto space = SmallBlockSpace();
  for (int seed = 1; seed <= 10; ++seed) {
    Rng rng(100 + seed);
    const int num_queries = static_cast<int>(rng.UniformInt(1, 8));
    SpilledSide a = MakeSpilledSide(&rng, space.get(), nullptr,
                                    RandomMode(&rng), 2, 10, num_queries);
    SpilledSide b = MakeSpilledSide(&rng, space.get(), nullptr,
                                    RandomMode(&rng), 1, 5, num_queries);
    QuerySet mask = QuerySet::AllSet(static_cast<size_t>(num_queries));
    if (seed % 2 == 1) mask.Reset(0);
    EXPECT_EQ(JoinToMultiset(a.spilled, b.spilled, mask),
              JoinToMultiset(a.resident, b.resident, mask))
        << "seed " << seed;
  }
}

/// The probe adopts a settled compaction before it reads, like the sorted
/// scan: the folded inputs are released once the join has run.
TEST(SliceStoreJoinTest, ProbeAdoptsSettledCompaction) {
  auto space = SmallBlockSpace();
  storage::Compactor::Options co;
  co.min_runs = 3;
  storage::Compactor compactor(space.get(), co);
  compactor.Start();
  Rng rng(7);
  SpilledSide side = MakeSpilledSide(&rng, space.get(), &compactor,
                                     StoreMode::kList, 3, 0, 4);
  compactor.Stop();  // the fold has settled; the store has not adopted it
  EXPECT_EQ(space->num_runs(), 4);  // three inputs + the folded output
  const TupleStore other =
      RandomResidentStore(&rng, StoreMode::kGrouped, 40, 4);
  const QuerySet mask = QuerySet::AllSet(4);
  EXPECT_EQ(JoinToMultiset(side.spilled, other, mask),
            JoinToMultiset(side.resident, other, mask));
  EXPECT_EQ(space->num_runs(), 1);
}

TEST(AggStoreTest, AddSlotAccumulatorFinalize) {
  AggStore s;
  s.Add(1, QuerySet::Single(0), 10);
  s.Add(1, QuerySet::Single(0), 5);
  s.Add(1, QuerySet::Single(2), 7);
  s.Add(2, QuerySet::Single(0), 1);
  const spe::Accumulator acc = s.SlotAccumulator(1, 0);
  EXPECT_FALSE(acc.Empty());
  EXPECT_EQ(acc.Finalize(spe::AggKind::kSum), 15);
  EXPECT_EQ(acc.Finalize(spe::AggKind::kCount), 2);
  EXPECT_EQ(acc.Finalize(spe::AggKind::kMin), 5);
  EXPECT_EQ(acc.Finalize(spe::AggKind::kMax), 10);
  EXPECT_EQ(acc.Finalize(spe::AggKind::kAvg), 7);
  EXPECT_TRUE(s.SlotAccumulator(1, 1).Empty());
  EXPECT_TRUE(s.SlotAccumulator(9, 0).Empty());
}

TEST(AggStoreTest, SharedGroupPerTagSet) {
  AggStore s;
  // Two tuples tagged with the same two-query set land in ONE group: one
  // accumulator maintained for both queries (the group-sharing invariant).
  s.Add(1, Bits({0, 1}), 10);
  s.Add(1, Bits({0, 1}), 20);
  // A different tag set over the same key is a separate group.
  s.Add(1, Bits({1}), 5);
  size_t groups_seen = 0;
  s.ForEachGroupsMerged(
      [&](Value key, const AggStore::Group* groups, size_t n) {
        EXPECT_EQ(key, 1);
        groups_seen = n;
      });
  EXPECT_EQ(groups_seen, 2u);
  EXPECT_EQ(s.SlotAccumulator(1, 0).Finalize(spe::AggKind::kSum), 30);
  EXPECT_EQ(s.SlotAccumulator(1, 1).Finalize(spe::AggKind::kSum), 35);
}

TEST(AggStoreTest, SerializeRoundTrip) {
  AggStore s;
  s.Add(1, QuerySet::Single(0), 10);
  s.Add(2, Bits({0, 3}), 20);
  spe::StateWriter writer;
  s.Serialize(&writer);
  spe::StateReader reader(writer.TakeBuffer());
  AggStore restored = AggStore::Deserialize(&reader);
  EXPECT_EQ(restored.SlotAccumulator(2, 3).sum, 20);
  EXPECT_EQ(restored.SlotAccumulator(2, 0).sum, 20);
  EXPECT_EQ(restored.SlotAccumulator(1, 0).sum, 10);
  EXPECT_TRUE(restored.SlotAccumulator(1, 3).Empty());
}

}  // namespace
}  // namespace astream::core
