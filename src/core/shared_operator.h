#ifndef ASTREAM_CORE_SHARED_OPERATOR_H_
#define ASTREAM_CORE_SHARED_OPERATOR_H_

#include <functional>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "core/changelog.h"
#include "core/slice_store.h"
#include "core/slicing.h"
#include "core/trigger.h"
#include "obs/metrics.h"
#include "spe/operator.h"
#include "storage/memory_governor.h"

namespace astream::core {

/// Payload of a kModeSwitch marker (Sec. 3.2.3): the shared session tells
/// downstream shared operators to change their slice data structure.
struct ModeSwitchPayload : public spe::MarkerPayload {
  StoreMode mode = StoreMode::kList;
};

/// Configuration shared by the windowed shared operators.
struct SharedOperatorConfig {
  /// Which active queries this operator hosts (contributes windows,
  /// triggers, and state). E.g. the first join stage of a complex topology
  /// hosts complex queries with join_depth >= 1; the shared aggregation of
  /// an aggregation topology hosts kAggregation queries.
  std::function<bool(const ActiveQuery&)> hosts;

  /// Initial physical layout of slice tuple stores.
  StoreMode initial_mode = StoreMode::kGrouped;

  /// If true, the layout heuristic of Sec. 3.1.4 runs on every changelog:
  /// switch to kList when the average group size of the current open
  /// slices drops below 2, back to kGrouped when grouping would pay again.
  bool adaptive_mode = true;

  /// Per-query series sink (late drops, slice reuse). nullptr or a
  /// disabled registry costs one branch per record.
  obs::MetricsRegistry* metrics = nullptr;

  /// Per-query cost metering (DESIGN.md §14): attribute ingested rows,
  /// trigger CPU time, and state bytes to the owning queries' series.
  /// Off (the default), the meters cost one predicted branch per batch.
  bool meter_costs = false;

  /// Out-of-core state (DESIGN.md §10). Both nullptr (the default) keeps
  /// every slice resident — the pre-storage behavior. When set, the
  /// operator registers as a spill client, reports its resident bytes
  /// after every (batch of) record(s), and sheds its coldest slices to
  /// `spill_space` when the governor asks.
  storage::MemoryGovernor* governor = nullptr;
  storage::SpillSpace* spill_space = nullptr;
  /// Run compaction (DESIGN.md §13); nullptr = runs are never folded.
  storage::Compactor* compactor = nullptr;
  /// Weigh per-slice trigger reads in spill-victim selection (see
  /// StorageOptions::access_aware_eviction). Read by the aggregation and
  /// multiway operators; the binary join always spills its oldest slice.
  bool access_aware_eviction = false;

  /// Cross-window state sharing (DESIGN.md §12). When true (the default),
  /// the slicer routes composable (length, slide) specs through the
  /// factor-window rewrite, aggregations store group-shared partials, and
  /// trigger evaluation composes slices through the arrangement memo. When
  /// false, every query keeps per-slot partials over exact per-query edges
  /// — the per-query-store reference mode the equivalence suite compares
  /// against.
  bool share_arrangements = true;
};

/// Base class for SharedJoin and SharedAggregation: owns the active-query
/// table, the slice tracker + CL table, the trigger queue, the draining
/// bookkeeping for deleted queries, and slice eviction.
///
/// Deletion semantics: a window of query q emits iff its end is at or
/// before q's deletion time; later windows (including the one in flight at
/// deletion) are cancelled. Creation semantics: windows are anchored at
/// the creation time (Fig. 4d).
class SharedWindowedOperator : public spe::Operator {
 public:
  explicit SharedWindowedOperator(SharedOperatorConfig config)
      : config_(std::move(config)),
        metrics_on_(config_.metrics != nullptr && config_.metrics->enabled()),
        meter_on_(config_.meter_costs && config_.metrics != nullptr &&
                  config_.metrics->enabled()),
        series_cache_(config_.metrics) {
    tracker_.EnableFactorRewrite(config_.share_arrangements);
  }

  void OnMarker(const spe::ControlMarker& marker, spe::Collector* out) final;
  void OnWatermark(TimestampMs watermark, spe::Collector* out) final;

  const ActiveQueryTable& table() const { return table_; }
  SliceTracker& tracker() { return tracker_; }
  const SliceTracker& tracker() const { return tracker_; }

  /// Whether cross-window sharing (arrangement memo + factor rewriting +
  /// group-shared partials) is on for this operator.
  bool share_arrangements() const { return config_.share_arrangements; }

  /// Observability: slices currently alive / total created.
  size_t NumLiveSlices() const { return tracker_.NumSlices(); }

  /// Cost metering: apportions this operator's resident state bytes
  /// across its hosted time-windowed queries by window-span share (a
  /// query retaining a 10x longer window owns 10x of the shared arena)
  /// and adds the shares into `out`. No-op when nothing is resident.
  /// Any thread may call it while the task thread runs: it reads the
  /// hosted spans the task thread last published, not the query table.
  void AppendStateShares(std::map<QueryId, int64_t>* out) const;

 protected:
  struct DrainingQuery {
    ActiveQuery query;
    TimestampMs deleted_at = 0;
  };

  /// One query participating in a triggered window. `draining` queries were
  /// deleted after this window completed; their results must be emitted
  /// with an explicit output channel (the slot may already be reused).
  struct TriggeredQuery {
    const ActiveQuery* query = nullptr;
    bool draining = false;
  };

  /// Subclass hooks -------------------------------------------------------

  /// A hosted query was created (changelog applied, tracker updated).
  virtual void OnQueryCreated(const ActiveQuery& query) { (void)query; }
  /// A hosted query was deleted (already moved to draining).
  virtual void OnQueryDeleted(const DrainingQuery& draining) {
    (void)draining;
  }
  /// Evaluate all windows sharing the same [start, end) interval.
  /// `queries` is non-empty; every entry is hosted and time-windowed.
  virtual void TriggerWindows(TimestampMs start, TimestampMs end,
                              const std::vector<TriggeredQuery>& queries,
                              spe::Collector* out) = 0;
  /// Called after every changelog once the active set and hosted mask are
  /// final (subclasses recompute derived masks/caches here).
  virtual void OnActiveSetChanged() {}
  /// Slices were evicted; drop any per-slice state.
  virtual void OnSlicesEvicted(const std::vector<int64_t>& indices) = 0;
  /// The store layout changed (mode-switch marker or heuristic).
  virtual void OnModeSwitch(StoreMode mode) { (void)mode; }
  /// Watermark advanced past all due triggers (session windows etc.).
  virtual void OnWatermarkTail(TimestampMs watermark, spe::Collector* out) {
    (void)watermark;
    (void)out;
  }

  /// Helpers for subclasses ------------------------------------------------

  /// Mask of slots hosted by this operator (recomputed per changelog).
  const QuerySet& hosted_mask() const { return hosted_mask_; }

  /// Metrics helpers. `metrics_on()` is the one-branch hot-path guard;
  /// the per-slot vector is rebuilt on every changelog so slot lookups
  /// never hash. Draining queries (slot reused) fall back to the id cache.
  bool metrics_on() const { return metrics_on_; }
  /// One-branch guard for the per-record cost meters (off by default).
  bool meter_costs() const { return meter_on_; }
  obs::QuerySeries* SeriesForSlot(size_t slot) {
    return slot < slot_series_.size() ? slot_series_[slot] : nullptr;
  }
  obs::QuerySeries* SeriesForQuery(QueryId id) { return series_cache_.For(id); }
  StoreMode current_mode() const { return current_mode_; }
  TimestampMs max_seen_event_time() const { return max_seen_event_time_; }
  void NoteEventTime(TimestampMs t) {
    if (t > max_seen_event_time_) max_seen_event_time_ = t;
  }
  TimestampMs current_watermark() const { return current_watermark_; }

  /// Out-of-core wiring (nullptr when the job runs unbudgeted).
  storage::MemoryGovernor* governor() const { return config_.governor; }
  storage::SpillSpace* spill_space() const { return config_.spill_space; }
  storage::Compactor* compactor() const { return config_.compactor; }
  bool access_aware_eviction() const {
    return config_.access_aware_eviction;
  }

  /// Resident state bytes of the subclass (arena footprint) for the
  /// AppendStateShares apportionment.
  virtual int64_t ResidentStateBytes() const { return 0; }

  /// Serialization of the base state (call from subclass snapshots).
  void SerializeBase(spe::StateWriter* writer) const;
  Status RestoreBase(spe::StateReader* reader);

 private:
  void ApplyChangelog(const Changelog& log);
  /// Copies (id, window length) of every hosted time-windowed query into
  /// hosted_spans_ (task thread, after the table changes).
  void PublishHostedSpans();
  void RebuildSlotSeries();
  void EvictExpired(TimestampMs watermark);
  /// Longest window span any live (active or draining) hosted query needs.
  TimestampMs MaxWindowSpan() const;
  void MaybeSwitchMode();

  SharedOperatorConfig config_;
  ActiveQueryTable table_;
  SliceTracker tracker_;
  TriggerQueue triggers_;
  std::map<QueryId, DrainingQuery> draining_;
  QuerySet hosted_mask_;
  StoreMode current_mode_ = StoreMode::kGrouped;
  TimestampMs max_seen_event_time_ = kMinTimestamp;
  TimestampMs current_watermark_ = kMinTimestamp;

  bool metrics_on_ = false;
  bool meter_on_ = false;
  obs::SeriesCache series_cache_;
  std::vector<obs::QuerySeries*> slot_series_;

  mutable std::mutex spans_mutex_;
  std::vector<std::pair<QueryId, TimestampMs>> hosted_spans_;
};

}  // namespace astream::core

#endif  // ASTREAM_CORE_SHARED_OPERATOR_H_
