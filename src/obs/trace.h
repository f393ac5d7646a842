#ifndef ASTREAM_OBS_TRACE_H_
#define ASTREAM_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace astream::obs {

/// Structured lifecycle events of one ad-hoc query, submit to cancel.
/// `kChangelogFlush` and `kCheckpoint` are job-level (query = -1).
enum class TraceEventKind : uint8_t {
  kSubmit,          // Submit() accepted the descriptor; detail = epoch hint
  kChangelogFlush,  // a changelog batch entered the streams; detail = epoch
  kDeployAck,       // every router applied the query's changelog;
                    // detail = deploy latency (ms)
  kFirstResult,     // the first result record reached the sink;
                    // detail = event-time latency (ms)
  kCancel,           // Cancel() accepted the deletion request
  kCheckpoint,       // a checkpoint barrier was injected; detail = id
  kFinish,           // FinishAndWait() drained the job
  kFailureDetected,  // a task failure was detected; detail = attempt count
  kRecoveryStart,    // a recovery attempt began; detail = attempt index
  kRecoveryDone,     // recovery completed; detail = latency (ms)
  kSpill,            // a store spilled a run to disk; detail = run bytes
};

const char* TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  /// Monotonic microseconds since the sink's construction.
  int64_t ts_us = 0;
  /// Query id, or -1 for job-level events.
  int64_t query = -1;
  TraceEventKind kind = TraceEventKind::kSubmit;
  /// Kind-specific payload (latency ms, epoch, checkpoint id).
  int64_t detail = 0;
};

/// Collects lifecycle events with monotonic timestamps and renders them as
/// JSON-lines:
///   {"ts_us":1234,"event":"submit","query":7,"detail":0}
/// Thread-safe; a disabled sink drops events at the cost of one branch.
/// Bounded: beyond `capacity` events new ones are counted but not stored.
class TraceSink {
 public:
  explicit TraceSink(bool enabled = true, size_t capacity = 1 << 20);

  bool enabled() const { return enabled_; }

  void Record(TraceEventKind kind, int64_t query = -1, int64_t detail = 0);

  std::vector<TraceEvent> Events() const;
  size_t size() const;
  /// Events dropped because the sink was at capacity.
  int64_t dropped() const;

  /// One JSON object per line, in record order.
  std::string ToJsonLines() const;

  /// Writes ToJsonLines() to a file (overwrites).
  Status DumpTo(const std::string& path) const;

 private:
  int64_t NowMicros() const;

  const bool enabled_;
  const size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  int64_t dropped_ = 0;
};

}  // namespace astream::obs

#endif  // ASTREAM_OBS_TRACE_H_
