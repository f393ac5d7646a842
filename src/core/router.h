#ifndef ASTREAM_CORE_ROUTER_H_
#define ASTREAM_CORE_ROUTER_H_

#include <atomic>
#include <functional>
#include <vector>

#include "common/clock.h"
#include "common/owned_counter.h"
#include "core/changelog.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spe/operator.h"

namespace astream::core {

/// The router (Sec. 3.1.6): the terminal shared operator. Every incoming
/// record is shipped to the output channel of each query encoded in its
/// query-set — this is the one place AStream copies data (Sec. 3.2.2).
/// Records that already carry an explicit channel id (results of windowed
/// queries, stamped by the shared join/aggregation) are forwarded without
/// slot resolution, which keeps routing correct across slot reuse.
///
/// Output leaves as one run per input batch (Collector::EmitRun): a batch
/// of such pre-resolved results is stamped and passed on in place, and
/// raw fan-out copies are built straight into the run.
class RouterOperator : public spe::Operator {
 public:
  struct Config {
    /// Which queries receive *raw* (un-windowed) tuples from `port` — e.g.
    /// selection-only queries on the raw-tuple port. Defaults to
    /// selection queries on every port.
    std::function<bool(const ActiveQuery&, int port)> routes_raw;
    int num_ports = 1;
    /// When true, per-record copy time is accumulated (Fig. 18).
    bool measure_overhead = false;
    /// Per-query series sink: records emitted and event-time latency are
    /// attributed here, at the terminal operator. nullptr or a disabled
    /// registry costs one branch per record.
    obs::MetricsRegistry* metrics = nullptr;
    /// Receives the per-query first-result lifecycle event (may be null).
    obs::TraceSink* trace = nullptr;
    /// Wall clock used for event-time latency (defaults to WallClock); jobs
    /// pass their own clock so tests with ManualClock stay deterministic.
    Clock* clock = nullptr;
  };

  explicit RouterOperator(Config config);

  int num_ports() const override { return config_.num_ports; }
  /// A batch of one.
  void ProcessRecord(int port, spe::Record record,
                     spe::Collector* out) override;
  /// Fans out the whole batch in one pass, with one overhead-timing sample
  /// and one clock read, and emits it as one run.
  void ProcessBatch(int port, spe::RecordBatch& records,
                    spe::Collector* out) override;
  void OnMarker(const spe::ControlMarker& marker,
                spe::Collector* out) override;
  Status SnapshotState(spe::StateWriter* writer) override;
  Status RestoreState(spe::StateReader* reader) override;

  const ActiveQueryTable& table() const { return table_; }

  /// Total nanoseconds spent fanning records out to query channels.
  /// Historically `copy_nanos`: with copy-on-write rows the fan-out ships
  /// a shared payload (a refcount bump), so this measures routing + tag
  /// resolution, not data copying — see rows_shared()/rows_copied() for
  /// how often each actually happens.
  int64_t fanout_nanos() const {
    return fanout_nanos_.load(std::memory_order_relaxed);
  }
  /// Any thread may read the routing counters while the task thread runs.
  int64_t records_routed() const { return records_routed_.Get(); }
  /// Fan-out rows shipped by reference (CoW share — the Sec. 3.2.2 "copy"
  /// that no longer copies).
  int64_t rows_shared() const { return rows_shared_.Get(); }
  /// Fan-out rows that materialized a fresh payload (empty/degenerate rows).
  int64_t rows_copied() const { return rows_copied_.Get(); }

 private:
  /// Counts `count` shipped records of `id` with one event time, and
  /// their event-time latency at wall time `now`.
  void NoteEmit(QueryId id, TimestampMs event_time, int64_t count,
                TimestampMs now);
  /// NoteEmit once per stretch of equal (channel, event time) in `run`.
  void NoteRun(const spe::RecordBatch& run, TimestampMs now);
  /// Routing work of one call, added to the counters once at its end.
  struct RouteTally {
    int64_t routed = 0;
    int64_t shared = 0;
    int64_t copied = 0;
  };
  /// Appends one raw tuple's copies, one per subscribed query, to `run`.
  void FanOut(int port, const spe::Record& record, spe::RecordBatch* run,
              RouteTally* tally);
  void Publish(const RouteTally& tally);

  Config config_;
  ActiveQueryTable table_;
  // Id of the last aligned checkpoint barrier; stamped onto every routed
  // output (Record::epoch) for recovery-time output dedup.
  int64_t epoch_ = 0;
  OwnedCounter records_routed_;
  OwnedCounter rows_shared_;
  OwnedCounter rows_copied_;
  std::atomic<int64_t> fanout_nanos_{0};

  bool metrics_on_ = false;
  obs::SeriesCache series_cache_;
  // Output run of a batch that holds raw tuples; reused across batches.
  spe::RecordBatch run_;
};

}  // namespace astream::core

#endif  // ASTREAM_CORE_ROUTER_H_
