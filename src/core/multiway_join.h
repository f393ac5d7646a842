#ifndef ASTREAM_CORE_MULTIWAY_JOIN_H_
#define ASTREAM_CORE_MULTIWAY_JOIN_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/owned_counter.h"
#include "core/arrangement.h"
#include "core/join_graph.h"
#include "core/shared_operator.h"

namespace astream::core {

/// The shared multi-way join (DESIGN.md §15): one operator hosting every
/// kMultiJoin query, with per-stream state in TupleArrangements (one per
/// input port) and flat n-way window semantics — a window [ws, we) of a
/// query over streams S emits one row per combination of key-equal tuples,
/// one from each stream of S, all inside the window; the output column
/// order is the query's declared leg order and the result time is we - 1
/// (exactly a cascade of binary joins evaluated inside one window
/// instance, which the equivalence tests pin it to).
///
/// Sharing: each query slot is assigned a probe chain (a permutation of
/// its streams) by the SubJoinRegistry + JoinCostModel; chains reuse the
/// longest already-materialized sub-join prefix, and chain-prefix results
/// are memoized per (prefix, window interval) so the common sub-join of
/// many queries is computed once per interval. Tags follow Eq. 1: a
/// combination's query-set is the AND of its members' tag sets masked
/// through the CL table over the slice span — order-insensitive, so probe
/// order never changes which rows a query receives.
class SharedMultiwayJoin : public SharedWindowedOperator,
                           public storage::SpillClient {
 public:
  SharedMultiwayJoin(SharedOperatorConfig config, int num_streams);
  ~SharedMultiwayJoin() override;

  int num_ports() const override { return num_streams_; }
  void ProcessRecord(int port, spe::Record record,
                     spe::Collector* out) override;
  void ProcessBatch(int port, spe::RecordBatch& records,
                    spe::Collector* out) override;
  Status SnapshotState(spe::StateWriter* writer) override;
  Status RestoreState(spe::StateReader* reader) override;

  /// Observability / micro_mjoin.
  /// Any thread may read these while the task thread runs.
  int64_t chains_computed() const { return chains_computed_.Get(); }
  int64_t chains_reused() const { return chains_reused_.Get(); }
  int64_t bitset_ops() const { return bitset_ops_.Get(); }
  int64_t records_late() const { return records_late_.Get(); }
  int64_t state_arena_bytes() const { return state_arena_bytes_.Get(); }
  int64_t reload_saves() const { return reload_saves_.Get(); }
  const SubJoinRegistry& registry() const { return registry_; }
  const JoinCostModel& cost_model() const { return cost_model_; }

  /// storage::SpillClient: releases the chain memo first (derived state),
  /// then spills the least-read / coldest slice across every port.
  size_t SpillOnce() override;

 protected:
  void OnQueryCreated(const ActiveQuery& query) override;
  void OnQueryDeleted(const DrainingQuery& draining) override;
  void TriggerWindows(TimestampMs start, TimestampMs end,
                      const std::vector<TriggeredQuery>& queries,
                      spe::Collector* out) override;
  void OnSlicesEvicted(const std::vector<int64_t>& indices) override;
  void OnModeSwitch(StoreMode mode) override;
  void OnWatermarkTail(TimestampMs watermark, spe::Collector* out) override;
  int64_t ResidentStateBytes() const override {
    return state_arena_bytes_.Get();
  }

 private:
  /// A query's evaluation plan: the registry-assigned probe chain and the
  /// declared leg order (which fixes output columns).
  struct Plan {
    std::vector<int> chain;
    std::vector<int> declared;
  };

  /// One partial join result: key-equal rows from chain[0..k], their
  /// combined CL-masked tag set, and the slice span they cover.
  struct Combination {
    std::vector<spe::Row> parts;
    QuerySet tags;
    int64_t key = 0;
    int64_t lo = 0;  // min slice index
    int64_t hi = 0;  // max slice index
  };

  /// Per-port window index for one trigger interval: key -> entries.
  struct IndexEntry {
    spe::Row row;
    QuerySet tags;
    int64_t slice = 0;
  };
  using WindowIndex = std::unordered_map<spe::Value, std::vector<IndexEntry>>;

  /// Memoized chain-prefix results, keyed by (prefix, interval).
  struct MemoEntry {
    std::vector<Combination> combos;
    int64_t min_slice = TupleArrangement::kNoVersion;
    size_t bytes = 0;
  };
  using ChainKey =
      std::pair<std::vector<int>, std::pair<TimestampMs, TimestampMs>>;

  Plan PlanFor(const ActiveQuery& query);
  const Plan* ActivePlan(int slot) const;

  /// The window index of `port` over `slices` (built lazily per trigger).
  const WindowIndex& IndexFor(int port, const std::vector<SliceInfo>& slices,
                              std::map<int, WindowIndex>* cache);

  /// Work one trigger did, added to the counters once at its end.
  struct TriggerTally {
    int64_t bitset_ops = 0;
    int64_t chains_computed = 0;
    int64_t chains_reused = 0;
  };

  /// The combinations of chain[0..len) inside [start, end). `*computed`
  /// reports whether this call did top-level work or hit the memo; the
  /// work is counted into `*tally`.
  const std::vector<Combination>& EvalChain(
      const std::vector<int>& chain, size_t len, TimestampMs start,
      TimestampMs end, const std::vector<SliceInfo>& slices,
      std::map<int, WindowIndex>* index_cache, bool* computed,
      TriggerTally* tally);

  size_t ReleaseChainMemo();
  void RefreshArenaBytes();
  void EnforceBudget();
  void RebuildPlans();

  const int num_streams_;
  std::vector<TupleArrangement> ports_;
  SubJoinRegistry registry_;
  JoinCostModel cost_model_;
  /// slot -> plan (active queries; rebuilt from the registry on restore).
  std::map<int, Plan> plans_;
  /// id -> plan of deleted-but-draining queries (serialized: the registry
  /// refs were already released at deletion).
  std::map<QueryId, Plan> draining_plans_;
  std::map<ChainKey, MemoEntry> chain_memo_;
  size_t chain_memo_bytes_ = 0;

  OwnedCounter chains_computed_;
  OwnedCounter chains_reused_;
  OwnedCounter bitset_ops_;
  OwnedCounter records_late_;
  OwnedCounter state_arena_bytes_;
  OwnedCounter reload_saves_;
  QuerySet scratch_tags_;
};

}  // namespace astream::core

#endif  // ASTREAM_CORE_MULTIWAY_JOIN_H_
