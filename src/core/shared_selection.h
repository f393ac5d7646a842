#ifndef ASTREAM_CORE_SHARED_SELECTION_H_
#define ASTREAM_CORE_SHARED_SELECTION_H_

#include <atomic>

#include "core/changelog.h"
#include "obs/metrics.h"
#include "spe/operator.h"

namespace astream::core {

/// The shared selection operator (Sec. 3.1.2): evaluates the predicates of
/// every active query against each tuple and appends the resulting
/// query-set as the tuple's tag column. One operator serves all queries;
/// the active set updates via changelog markers.
class SharedSelection : public spe::Operator {
 public:
  struct Config {
    /// The external stream this selection serves: every query that reads
    /// it (QueryDescriptor::UsesStream) tags with its predicates on it
    /// (QueryDescriptor::SelectOn).
    int stream = 0;
    /// When true, per-tuple query-set generation time is accumulated
    /// (Fig. 18 overhead breakdown).
    bool measure_overhead = false;
    /// Shared predicate index: each *distinct* predicate is evaluated once
    /// per tuple and failing predicates subtract their queries' bits —
    /// queries with identical predicates share the evaluation (the
    /// paper's future-work direction of grouping similar queries).
    /// When false, every query's conjunction is evaluated independently.
    bool use_predicate_index = true;
    /// Named-counter sink (`selection.<x>.records_{in,out,dropped}` for
    /// stage `shared-selection-<x>`; registered at Open).
    /// The selection deliberately records NO per-query series: attributing
    /// a tuple would mean walking its query-set per record, which breaks
    /// the hot-path budget; per-query emission is attributed at the router
    /// instead. nullptr or a disabled registry costs one branch per record.
    obs::MetricsRegistry* metrics = nullptr;
    /// Cost metering (DESIGN.md §14) overrides the no-per-query-series
    /// rule above: each matched query's `cost_rows` is bumped per tuple
    /// (a walk of the tuple's set bits). Off by default — only isolation-
    /// enabled jobs pay it.
    bool meter_costs = false;
  };

  explicit SharedSelection(Config config);

  Status Open(const spe::OperatorContext& ctx) override;
  void ProcessRecord(int port, spe::Record record,
                     spe::Collector* out) override;
  /// Vectorized path: evaluates all predicates over the batch reusing one
  /// scratch query-set (no per-tuple bitset construction for dropped
  /// tuples) and batching the counter/overhead bookkeeping.
  void ProcessBatch(int port, spe::RecordBatch& records,
                    spe::Collector* out) override;
  void OnMarker(const spe::ControlMarker& marker,
                spe::Collector* out) override;
  Status SnapshotState(spe::StateWriter* writer) override;
  Status RestoreState(spe::StateReader* reader) override;

  const ActiveQueryTable& table() const { return table_; }

  /// Total nanoseconds spent generating query-sets (measure_overhead).
  int64_t queryset_nanos() const {
    return queryset_nanos_.load(std::memory_order_relaxed);
  }
  int64_t records_dropped() const { return records_dropped_; }
  /// Distinct predicates in the shared index (observability/tests).
  size_t IndexSize() const { return index_.size(); }

 private:
  bool Hosts(const ActiveQuery& q) const {
    return q.desc.UsesStream(config_.stream);
  }

  QuerySet ComputeTags(const spe::Row& row) const;
  /// Builds the tags into `tags`, reusing its capacity (batch hot path).
  void ComputeTagsInto(const spe::Row& row, QuerySet* tags) const;
  void RebuildIndex();
  /// Bills one row to every query matched in scratch_tags_ (meter_costs).
  void MeterMatchedRows() {
    scratch_tags_.ForEachSetBit([&](size_t slot) {
      if (slot < slot_series_.size() && slot_series_[slot] != nullptr) {
        slot_series_[slot]->cost_rows.Add();
      }
    });
  }

  Config config_;
  ActiveQueryTable table_;

  // Shared predicate index: distinct predicate -> bits of the queries
  // whose conjunction contains it; `hosted_mask_` covers all queries that
  // tag on this stream (those with an empty conjunction always match).
  struct IndexedPredicate {
    Predicate predicate;
    QuerySet queries;
  };
  std::vector<IndexedPredicate> index_;
  QuerySet hosted_mask_;

  int64_t records_dropped_ = 0;
  std::atomic<int64_t> queryset_nanos_{0};
  // Scratch query-set reused across the tuples of one batch.
  QuerySet scratch_tags_;

  // Cached registry pointers; recording is lock-free (see obs/metrics.h).
  bool metrics_on_ = false;
  bool meter_on_ = false;
  obs::Counter* m_records_in_ = nullptr;
  obs::Counter* m_records_out_ = nullptr;
  obs::Counter* m_records_dropped_ = nullptr;
  // Slot -> series for cost_rows attribution (meter_costs only); rebuilt
  // on every changelog so the hot path never hashes.
  std::vector<obs::QuerySeries*> slot_series_;
};

}  // namespace astream::core

#endif  // ASTREAM_CORE_SHARED_SELECTION_H_
