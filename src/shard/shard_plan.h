#ifndef ASTREAM_SHARD_SHARD_PLAN_H_
#define ASTREAM_SHARD_SHARD_PLAN_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "spe/row.h"

namespace astream::shard {

/// Finalizer-quality 64-bit mix (splitmix64): key -> slot hashing must be
/// independent of both the shard count and the engine's internal
/// InstanceForKey partitioning, so resharding never re-hashes keys — only
/// slot ownership moves.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Immutable hash-slot ownership table: a key hashes to one of
/// `num_slots()` slots (stable for the lifetime of the deployment), each
/// slot is owned by exactly one shard. Live resharding publishes a new
/// plan (bumped version) that reassigns some slots; the router's control
/// thread routes with its own pointer and hands each egress slot a copy
/// under that slot's mutex (see ShardRouter).
struct ShardPlan {
  /// Monotonic plan version; bumped by every reshard.
  int64_t version = 1;
  /// slot index -> owning shard index.
  std::vector<int> owner;

  int num_slots() const { return static_cast<int>(owner.size()); }

  int num_shards() const {
    int n = 0;
    for (int s : owner) n = s >= n ? s + 1 : n;
    return n;
  }

  static int SlotOfKey(spe::Value key, int num_slots) {
    return static_cast<int>(SplitMix64(static_cast<uint64_t>(key)) %
                            static_cast<uint64_t>(num_slots));
  }

  int OwnerOfKey(spe::Value key) const {
    return owner[SlotOfKey(key, num_slots())];
  }

  /// Round-robin slot assignment across `shards` (slot i -> i % shards):
  /// every shard owns ~slots/shards slots from the start.
  static ShardPlan Uniform(int shards, int slots) {
    assert(shards >= 1 && slots >= shards);
    ShardPlan plan;
    plan.owner.resize(static_cast<size_t>(slots));
    for (int i = 0; i < slots; ++i) plan.owner[i] = i % shards;
    return plan;
  }

  std::vector<int> SlotsOwnedBy(int shard) const {
    std::vector<int> slots;
    for (int i = 0; i < num_slots(); ++i) {
      if (owner[i] == shard) slots.push_back(i);
    }
    return slots;
  }

  /// New plan with every slot of `from` moved to `to` (shard migration;
  /// `to` may be a brand-new index, growing the deployment).
  ShardPlan Moved(int from, int to) const {
    ShardPlan next = *this;
    next.version = version + 1;
    for (int& s : next.owner) {
      if (s == from) s = to;
    }
    return next;
  }

  /// New plan splitting `shard`'s slots: every second owned slot moves to
  /// `new_shard`, halving the key range while keeping both halves
  /// non-empty for any owned-slot count >= 2.
  ShardPlan Split(int shard, int new_shard) const {
    ShardPlan next = *this;
    next.version = version + 1;
    int nth = 0;
    for (int& s : next.owner) {
      if (s != shard) continue;
      if (nth++ % 2 == 1) s = new_shard;
    }
    return next;
  }
};

}  // namespace astream::shard

#endif  // ASTREAM_SHARD_SHARD_PLAN_H_
