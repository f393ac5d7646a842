#ifndef ASTREAM_CORE_SHARED_AGGREGATION_H_
#define ASTREAM_CORE_SHARED_AGGREGATION_H_

#include <map>
#include <vector>

#include "common/owned_counter.h"
#include "core/arrangement.h"
#include "core/shared_operator.h"

namespace astream::core {

/// The shared windowed aggregation (Sec. 3.1.5).
///
/// Unlike the shared join, tuples are not materialized: each slice keeps,
/// per key, one partial accumulator per interested query slot; the tuple is
/// discarded after updating them. A query window combines the partials of
/// its slices (masked through the CL table) and emits one [key, aggregate]
/// row per key, stamped with the query's output channel.
///
/// Session windows (gap-based) are supported per Sec. 3.1.3: they do not
/// align to shared slices, so the operator tracks per-(query, key) session
/// accumulators directly; selection and routing are still shared.
class SharedAggregation : public SharedWindowedOperator,
                          public storage::SpillClient {
 public:
  struct AggConfig {
    SharedOperatorConfig shared;
    /// Number of input ports (1 for aggregation topologies; one per join
    /// stage in complex topologies).
    int num_ports = 1;
    /// Which queries consume records arriving on `port`. Defaults to
    /// every hosted query on every port.
    std::function<bool(const ActiveQuery&, int port)> port_filter;
  };

  explicit SharedAggregation(AggConfig config);
  ~SharedAggregation() override;

  int num_ports() const override { return config_.num_ports; }
  void ProcessRecord(int port, spe::Record record,
                     spe::Collector* out) override;
  /// Vectorized path: batch tuples are grouped by slice, so the slice
  /// store is resolved once per run of same-slice tuples (tuples arrive
  /// roughly time-ordered) instead of once per tuple, and the port-mask
  /// intersection reuses one scratch query-set.
  void ProcessBatch(int port, spe::RecordBatch& records,
                    spe::Collector* out) override;
  Status SnapshotState(spe::StateWriter* writer) override;
  Status RestoreState(spe::StateReader* reader) override;

  /// Any thread may read these while the task thread runs.
  int64_t bitset_ops() const { return bitset_ops_.Get(); }
  int64_t records_late() const { return records_late_.Get(); }
  /// Arena bytes backing all live slice stores (the state.arena_bytes
  /// gauge). Refreshed by the task thread after inserts and evictions.
  int64_t state_arena_bytes() const { return state_arena_bytes_.Get(); }
  /// Times the access-aware policy evicted something other than the
  /// coldest slice — each one a reload a standing query did not pay
  /// (the storage.reload_saves gauge).
  int64_t reload_saves() const { return reload_saves_.Get(); }
  /// The shared arrangement (memo hit/miss counters, composed-block bytes).
  const AggArrangement& arrangement() const { return arrange_; }

  /// storage::SpillClient: spills the coldest slice's partials (sessions
  /// never spill — they are per-query, not slice-aligned, and tiny).
  /// Governor-invoked only, on this operator's task thread.
  size_t SpillOnce() override;

 protected:
  void TriggerWindows(TimestampMs start, TimestampMs end,
                      const std::vector<TriggeredQuery>& queries,
                      spe::Collector* out) override;
  void OnSlicesEvicted(const std::vector<int64_t>& indices) override;
  void OnActiveSetChanged() override;
  void OnQueryCreated(const ActiveQuery& query) override;
  void OnQueryDeleted(const DrainingQuery& draining) override;
  void OnWatermarkTail(TimestampMs watermark, spe::Collector* out) override;
  int64_t ResidentStateBytes() const override {
    return state_arena_bytes_.Get();
  }

 private:
  /// Cached per-slot facts, rebuilt on every changelog.
  struct SlotInfo {
    bool valid = false;
    bool session = false;
    int agg_column = 1;
    spe::AggKind agg_kind = spe::AggKind::kSum;
  };

  struct SessionState {
    TimestampMs start = 0;
    TimestampMs last = 0;
    spe::Accumulator acc;
  };

  /// Session-window bookkeeping of one hosted session query.
  struct SessionQuery {
    QueryId id = -1;
    int slot = -1;
    TimestampMs gap = 0;
    spe::AggKind agg_kind = spe::AggKind::kSum;
    int agg_column = 1;
    /// Set when the query was deleted: sessions closing after this are
    /// cancelled; sessions closing at or before it still emit.
    TimestampMs deleted_at = kMaxTimestamp;
    std::map<spe::Value, std::vector<SessionState>> sessions;
  };

  void AddToSession(SessionQuery* sq, spe::Value key, TimestampMs t,
                    spe::Value value);
  /// Routes one in-window record into session state and slice partials.
  /// `tags` is the record's tag set already intersected with the port mask;
  /// bitset operations are added to `*ops`.
  void IngestRecord(const spe::Record& record, const QuerySet& tags,
                    SliceCursor* cursor, AggStore** cached_store,
                    int64_t* ops);
  /// Recomputes arena/resident byte totals and reports them (with the
  /// coldest resident slice's window end) to the governor, if any.
  void RefreshArenaBytes();
  /// Asks the governor to rebalance; may call SpillOnce on this thread.
  void EnforceBudget();

  AggConfig config_;
  /// Versioned group-shared partials: slice index -> AggStore.
  AggArrangement arrange_;
  std::vector<SlotInfo> slot_info_;
  std::vector<QuerySet> port_masks_;
  /// One entry per distinct agg column among hosted time-window slots:
  /// with sharing on, a tuple does one accumulator Add per entry (tagged
  /// with every interested slot) instead of one per slot.
  struct ColumnMask {
    int column = 1;
    QuerySet slots;
  };
  std::vector<ColumnMask> column_masks_;
  /// All hosted time-window slots (the per-slot insert path, sharing off).
  QuerySet time_mask_;
  /// All hosted session-window slots.
  QuerySet session_mask_;
  std::map<QueryId, SessionQuery> session_queries_;
  OwnedCounter bitset_ops_;
  OwnedCounter records_late_;
  OwnedCounter state_arena_bytes_;
  OwnedCounter reload_saves_;
  // Scratch query-set reused across the tuples of one batch.
  QuerySet scratch_tags_;
  /// Trigger scratch, reused across triggers: the triggered time-window
  /// slots, each one's column (-1 for any other slot), and one cell per
  /// (composed key, column), key-major, that the trigger's one walk over
  /// the span merges each hit group into.
  struct Cell {
    spe::Accumulator acc;
    bool hit = false;
  };
  QuerySet trigger_slots_;
  std::vector<int> slot_column_;
  std::vector<Cell> cells_;
};

}  // namespace astream::core

#endif  // ASTREAM_CORE_SHARED_AGGREGATION_H_
