#ifndef ASTREAM_SPE_OPERATOR_H_
#define ASTREAM_SPE_OPERATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "spe/element.h"
#include "spe/state.h"

namespace astream::spe {

/// A contiguous run of data records that share one (port, sender)
/// provenance, handed to Operator::ProcessBatch. The runtime owns the
/// vector and reuses it across batches; operators may move individual
/// records out but must not hold on to the vector itself.
using RecordBatch = std::vector<Record>;

/// Downstream emission interface handed to operators. Implementations route
/// records by key, broadcast watermarks/markers, or collect into sinks.
class Collector {
 public:
  virtual ~Collector() = default;
  virtual void Emit(StreamElement element) = 0;
  /// Emits `records`, in order, as one run. On a sink stage the run takes
  /// the vector itself when it is the call's first output, so an operator
  /// that forwards its input batch (the router) passes it on in place
  /// without moving a record. Takes the records; `records` is left valid
  /// but unspecified.
  virtual void EmitRun(RecordBatch& records) = 0;

  void EmitRecord(TimestampMs event_time, Row row, DynamicBitset tags = {}) {
    Emit(StreamElement::MakeRecord(event_time, std::move(row),
                                   std::move(tags)));
  }
};

/// Per-instance runtime information available to an operator.
struct OperatorContext {
  int stage_index = 0;
  int instance_index = 0;
  int parallelism = 1;
  std::string stage_name;
  Clock* clock = nullptr;
};

/// Base class of all dataflow operators.
///
/// Threading contract: all methods of one instance are invoked from a
/// single thread (the instance's task). Runtime responsibilities handled
/// *outside* the operator:
///   - watermarks arrive already minimized across ports and senders and are
///     monotonically increasing;
///   - control markers arrive exactly once per epoch, aligned: every record
///     processed before marker M has event time < M.time, every record
///     after has event time >= M.time;
///   - markers and watermarks are forwarded downstream by the runtime, not
///     by the operator (the operator may emit records in response).
class Operator {
 public:
  virtual ~Operator() = default;

  /// Number of input ports (1 for unary, 2 for binary operators).
  virtual int num_ports() const { return 1; }

  /// Called once before any element is processed.
  virtual Status Open(const OperatorContext& ctx) {
    ctx_ = ctx;
    return Status::OK();
  }

  /// Processes one data record from `port`.
  virtual void ProcessRecord(int port, Record record, Collector* out) = 0;

  /// Processes a run of records from `port`, in order. The runtime calls
  /// this (not ProcessRecord) for every record run, so vectorized operators
  /// override it to amortize per-record work; the default delegates to the
  /// per-element path, so existing operators keep working unmodified.
  /// Control elements are never part of a run — watermarks and markers are
  /// batch boundaries, and every OnWatermark/OnMarker guarantee from the
  /// class comment holds across batches exactly as across single records.
  virtual void ProcessBatch(int port, RecordBatch& records, Collector* out) {
    for (Record& record : records) {
      ProcessRecord(port, std::move(record), out);
    }
  }

  /// Called when the combined watermark (min over ports and senders)
  /// advances to `watermark`.
  virtual void OnWatermark(TimestampMs watermark, Collector* out) {
    (void)watermark;
    (void)out;
  }

  /// Called exactly once per aligned control marker.
  virtual void OnMarker(const ControlMarker& marker, Collector* out) {
    (void)marker;
    (void)out;
  }

  /// Serializes the operator's full state (checkpointing). Called at an
  /// aligned checkpoint barrier.
  virtual Status SnapshotState(StateWriter* writer) {
    (void)writer;
    return Status::OK();
  }

  /// Restores state written by SnapshotState.
  virtual Status RestoreState(StateReader* reader) {
    (void)reader;
    return Status::OK();
  }

  /// Called after the final watermark; flush any remaining output.
  virtual void Close(Collector* out) { (void)out; }

  const OperatorContext& ctx() const { return ctx_; }

 private:
  OperatorContext ctx_;
};

/// Creates the operator for instance `instance` of a stage.
using OperatorFactory =
    std::function<std::unique_ptr<Operator>(int instance)>;

}  // namespace astream::spe

#endif  // ASTREAM_SPE_OPERATOR_H_
