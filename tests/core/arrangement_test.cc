// AggArrangement::Compose (DESIGN.md §12.1): every span of seeded slice
// stores, composed from flat key-sorted blocks with the memo on or off,
// must equal a naive per-slice evaluation under the CL masks — across
// changelogs that reuse slots, tag sets past the 64-bit inline word,
// spilled stores and a partial eviction.

#include "core/arrangement.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "storage/spill_space.h"

namespace astream::core {
namespace {

constexpr int64_t kSlices = 20;

struct Tuple {
  spe::Value key;
  QuerySet tags;
  spe::Value value;
};

/// key -> slot -> (sum, count, min, max) of every tuple the slot sees.
using SlotView = std::map<spe::Value,
                          std::map<size_t, std::tuple<int64_t, int64_t,
                                                      int64_t, int64_t>>>;

SlotView ToView(const std::map<spe::Value,
                               std::map<size_t, spe::Accumulator>>& accs) {
  SlotView view;
  for (const auto& [key, slots] : accs) {
    for (const auto& [slot, a] : slots) {
      view[key][slot] = std::make_tuple(a.sum, a.count, a.min, a.max);
    }
  }
  return view;
}

/// Seeded slices [0, kSlices): each slice's tuples, its store in the
/// arrangement (some spilled, some absent) and its CL delta.
struct Fixture {
  std::unique_ptr<storage::SpillSpace> space;  // outlives the stores' runs
  AggArrangement arrange;
  ClTable cl;
  std::vector<std::vector<Tuple>> tuples;

  explicit Fixture(uint64_t seed) {
    Rng rng(seed);
    auto created = storage::SpillSpace::Create("");
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    space = std::move(created).value();
    arrange.BindSpill(space.get());
    // Half the seeds stay inside the inline word; the rest reach up to
    // 100 slots.
    const size_t num_slots = static_cast<size_t>(
        rng.Bernoulli(0.5) ? rng.UniformInt(2, 64) : rng.UniformInt(65, 100));
    auto slot = [&] {
      return static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(num_slots) - 1));
    };
    // Changelogs clear churned slots at slice boundaries; tuples carry
    // those slots on both sides of a boundary (the slot is reused).
    std::vector<size_t> churned;
    for (int i = 0; i < 6; ++i) churned.push_back(slot());
    // A small palette of tag sets, each with variants that add a churned
    // slot: masked across a boundary, a set and its variant become equal
    // and must fold into one group.
    std::vector<QuerySet> palette;
    for (int p = 0; p < 5; ++p) {
      QuerySet base;
      const int bits = static_cast<int>(rng.UniformInt(1, 4));
      for (int b = 0; b < bits; ++b) base.Set(slot());
      palette.push_back(base);
      QuerySet variant = base;
      variant.Set(churned[static_cast<size_t>(rng.UniformInt(0, 5))]);
      palette.push_back(variant);
    }
    tuples.resize(kSlices);
    for (int64_t i = 0; i < kSlices; ++i) {
      QuerySet delta = QuerySet::AllSet(num_slots);
      if (i > 0 && rng.Bernoulli(0.35)) {
        const int n = static_cast<int>(rng.UniformInt(1, 3));
        for (int c = 0; c < n; ++c) {
          delta.Reset(churned[static_cast<size_t>(rng.UniformInt(0, 5))]);
        }
      }
      cl.AddSlice(i, delta, num_slots);
      if (rng.Bernoulli(0.1)) continue;  // no state in this slice
      const int n = static_cast<int>(rng.UniformInt(1, 40));
      const int spill_at = rng.Bernoulli(0.3)
                               ? static_cast<int>(rng.UniformInt(1, n))
                               : -1;
      for (int t = 0; t < n; ++t) {
        Tuple tuple;
        tuple.key = rng.UniformInt(0, 11);
        if (rng.Bernoulli(0.8)) {
          tuple.tags = palette[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(palette.size()) - 1))];
        } else {
          tuple.tags.Set(slot());
        }
        tuple.value = rng.UniformInt(-50, 1000);
        arrange.StoreAt(i).Add(tuple.key, tuple.tags, tuple.value);
        tuples[static_cast<size_t>(i)].push_back(tuple);
        if (t + 1 == spill_at) EXPECT_GT(arrange.SpillAt(i), 0u);
      }
    }
  }

  /// Per slice j of [first, last], the slots Mask(last, j) holds see
  /// every tuple of j that carries them.
  SlotView Naive(int64_t first, int64_t last) {
    std::map<spe::Value, std::map<size_t, spe::Accumulator>> accs;
    for (int64_t j = first; j <= last; ++j) {
      const QuerySet mask = cl.Mask(last, j);
      for (const Tuple& t : tuples[static_cast<size_t>(j)]) {
        (t.tags & mask).ForEachSetBit(
            [&](size_t slot) { accs[t.key][slot].Add(t.value); });
      }
    }
    return ToView(accs);
  }

  std::shared_ptr<const AggArrangement::Composed> Compose(int64_t first,
                                                          int64_t last,
                                                          bool memoize) {
    std::vector<SliceInfo> slices;
    for (int64_t j = first; j <= last; ++j) {
      slices.push_back(SliceInfo{j * 100, (j + 1) * 100, j});
    }
    return arrange.Compose(slices, &cl, memoize);
  }
};

/// The composed view read per key and slot, after checking its layout:
/// keys strictly ascending, offsets bracketing the groups, every key with
/// groups, no empty tag set, and one group per tag set under a key.
SlotView Read(const AggArrangement::Composed& c) {
  EXPECT_EQ(c.offsets.size(), c.keys.size() + 1);
  EXPECT_EQ(c.offsets.front(), 0u);
  EXPECT_EQ(c.offsets.back(), c.groups.size());
  std::map<spe::Value, std::map<size_t, spe::Accumulator>> accs;
  for (size_t k = 0; k < c.NumKeys(); ++k) {
    if (k > 0) EXPECT_LT(c.keys[k - 1], c.keys[k]);
    const auto groups = c.GroupsOf(k);
    EXPECT_FALSE(groups.empty());
    for (size_t g = 0; g < groups.size(); ++g) {
      EXPECT_TRUE(groups[g].tags.Any());
      for (size_t h = 0; h < g; ++h) {
        EXPECT_NE(groups[h].tags, groups[g].tags) << "key " << c.keys[k];
      }
      groups[g].tags.ForEachSetBit([&](size_t slot) {
        accs[c.keys[k]][slot].Merge(groups[g].acc);
      });
    }
  }
  return ToView(accs);
}

/// Property: for every span, with the memo on and off, and again over the
/// slices left after a partial eviction, Compose equals the naive
/// per-slice evaluation.
TEST(AggArrangementTest, ComposeMatchesNaivePerSliceEvaluation) {
  int wide = 0;     // seeds past the inline word
  int spilled = 0;  // seeds with a spilled store
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Fixture f(seed);
    if (f.space->num_runs() > 0) ++spilled;
    bool past_inline_word = false;
    for (const auto& slice : f.tuples) {
      for (const Tuple& t : slice) past_inline_word |= t.tags.NumWords() > 1;
    }
    if (past_inline_word) ++wide;
    // Spans in a seeded order, so the memo holds different blocks when
    // each span is composed.
    std::vector<std::pair<int64_t, int64_t>> spans;
    for (int64_t a = 0; a < kSlices; ++a) {
      for (int64_t b = a; b < kSlices; ++b) spans.emplace_back(a, b);
    }
    Rng order(seed * 7919);
    for (size_t i = spans.size(); i > 1; --i) {
      std::swap(spans[i - 1],
                spans[static_cast<size_t>(order.UniformInt(
                    0, static_cast<int64_t>(i) - 1))]);
    }
    for (const auto& [a, b] : spans) {
      SCOPED_TRACE("span " + std::to_string(a) + ".." + std::to_string(b));
      const SlotView want = f.Naive(a, b);
      EXPECT_EQ(Read(*f.Compose(a, b, true)), want);
      EXPECT_EQ(Read(*f.Compose(a, b, false)), want);
    }
    EXPECT_GT(f.arrange.memo_hits(), 0);
    EXPECT_GT(f.arrange.memo_bytes(), 0u);

    const size_t blocks = f.arrange.memo_blocks();
    const int64_t evicted = static_cast<int64_t>(seed % 8) + 3;
    f.arrange.EvictThrough(evicted);
    f.cl.EvictBelow(evicted + 1);
    EXPECT_LT(f.arrange.memo_blocks(), blocks);
    for (int64_t a = evicted + 1; a < kSlices; ++a) {
      for (int64_t b = a; b < kSlices; ++b) {
        SCOPED_TRACE("after eviction, span " + std::to_string(a) + ".." +
                     std::to_string(b));
        const SlotView want = f.Naive(a, b);
        EXPECT_EQ(Read(*f.Compose(a, b, true)), want);
        EXPECT_EQ(Read(*f.Compose(a, b, false)), want);
      }
    }
  }
  EXPECT_GE(wide, 3);
  EXPECT_GE(spilled, 6);
}

/// A span that is exactly one aligned memoized block is that block: two
/// calls return the memo's own view, as the same pointer; without the
/// memo each call builds its own.
TEST(AggArrangementTest, OneAlignedBlockSpanIsTheMemoizedBlock) {
  Fixture f(3);
  const auto first = f.Compose(8, 15, true);  // level 3, base 8
  const int64_t hits = f.arrange.memo_hits();
  const auto second = f.Compose(8, 15, true);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(f.arrange.memo_hits(), hits + 1);
  EXPECT_EQ(f.Compose(4, 5, true).get(), f.Compose(4, 5, true).get());

  const auto unshared = f.Compose(8, 15, false);
  EXPECT_NE(unshared.get(), first.get());
  EXPECT_NE(unshared.get(), f.Compose(8, 15, false).get());
  EXPECT_EQ(Read(*unshared), Read(*first));
  // A span of several blocks is merged into a view of its own.
  EXPECT_NE(f.Compose(8, 16, true).get(), first.get());
}

}  // namespace
}  // namespace astream::core
