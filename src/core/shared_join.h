#ifndef ASTREAM_CORE_SHARED_JOIN_H_
#define ASTREAM_CORE_SHARED_JOIN_H_

#include <vector>

#include "common/owned_counter.h"
#include "core/arrangement.h"
#include "core/shared_operator.h"

namespace astream::core {

/// The shared windowed join (Sec. 3.1.4, Fig. 4f).
///
/// Incoming tuples (already tagged by the shared selections) are stored
/// once per slice and side. When a query window [ws, we) triggers, the
/// operator joins every A-slice/B-slice pair inside the window — but each
/// pair is joined exactly once, ever: results are memoized per pair with
/// their combined query-sets (masked through the CL table) and reused by
/// every query and window instance that covers the pair. Slices and memo
/// entries are evicted once no active or draining window can need them.
///
/// Join condition: A.key == B.key (Fig. 7's equi-join; the per-stream
/// selection predicates were applied upstream and live in the tag sets).
class SharedJoin : public SharedWindowedOperator, public storage::SpillClient {
 public:
  explicit SharedJoin(SharedOperatorConfig config);
  ~SharedJoin() override;

  int num_ports() const override { return 2; }
  void ProcessRecord(int port, spe::Record record,
                     spe::Collector* out) override;
  /// Vectorized path: the slice store for `port` is resolved once per run
  /// of same-slice tuples instead of once per tuple, and the hosted-mask
  /// intersection reuses one scratch query-set.
  void ProcessBatch(int port, spe::RecordBatch& records,
                    spe::Collector* out) override;
  Status SnapshotState(spe::StateWriter* writer) override;
  Status RestoreState(spe::StateReader* reader) override;

  /// Observability / Fig. 18 & micro benches.
  /// Any thread may read these while the task thread runs.
  int64_t pairs_computed() const { return pairs_computed_.Get(); }
  int64_t pairs_reused() const { return pairs_reused_.Get(); }
  int64_t bitset_ops() const { return bitset_ops_.Get(); }
  int64_t records_late() const { return records_late_.Get(); }
  /// Arena bytes backing all live slice stores (the state.arena_bytes
  /// gauge). Refreshed by the task thread after inserts and evictions.
  int64_t state_arena_bytes() const { return state_arena_bytes_.Get(); }
  /// The tuple arrangement of `port` (0 = A, 1 = B). Task thread only.
  const TupleArrangement& side(int port) const { return sides_[port]; }

  /// storage::SpillClient: spills the oldest (lowest-index) resident slice
  /// of both sides plus the CL deltas at or below it. The join counts no
  /// trigger reads and never spares a slice for them, so it adds nothing
  /// to storage.reload_saves (DESIGN.md §13.4). Governor-invoked only, on
  /// this operator's task thread.
  size_t SpillOnce() override;

 protected:
  void TriggerWindows(TimestampMs start, TimestampMs end,
                      const std::vector<TriggeredQuery>& queries,
                      spe::Collector* out) override;
  void OnSlicesEvicted(const std::vector<int64_t>& indices) override;
  void OnModeSwitch(StoreMode mode) override;
  int64_t ResidentStateBytes() const override {
    return state_arena_bytes_.Get();
  }

 private:
  /// Memoized join of A-slice `a` with B-slice `b` (computed on first use).
  /// `*computed` reports whether this call did the work or hit the memo,
  /// so callers can attribute reuse to the queries they serve; the join's
  /// bitset operations are added to `*ops`.
  const std::vector<JoinedTuple>& MemoFor(int64_t a, int64_t b,
                                          bool* computed, int64_t* ops);
  /// Recomputes arena/resident byte totals and reports them (with the
  /// coldest resident slice's window end) to the governor, if any.
  void RefreshArenaBytes();
  /// Asks the governor to rebalance; may call SpillOnce on this thread.
  void EnforceBudget();

  /// One tuple arrangement per side; both operators read versioned slices
  /// of the same maintained index instead of private store maps.
  TupleArrangement sides_[2];
  /// (a-slice, b-slice) -> joined tuples with combined, CL-masked tags.
  JoinMemo memo_;

  OwnedCounter pairs_computed_;
  OwnedCounter pairs_reused_;
  OwnedCounter bitset_ops_;
  OwnedCounter records_late_;
  OwnedCounter state_arena_bytes_;
  // Scratch query-set reused across the tuples of one batch.
  QuerySet scratch_tags_;
};

}  // namespace astream::core

#endif  // ASTREAM_CORE_SHARED_JOIN_H_
