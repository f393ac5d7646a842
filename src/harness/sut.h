#ifndef ASTREAM_HARNESS_SUT_H_
#define ASTREAM_HARNESS_SUT_H_

#include <memory>

#include "core/push_result.h"
#include "core/qos.h"
#include "core/query.h"
#include "spe/row.h"

namespace astream::harness {

/// System under test (Sec. 4.1): the driver talks to AStream and to the
/// query-at-a-time baseline through this one interface.
class StreamSut {
 public:
  virtual ~StreamSut() = default;

  virtual Status Start() = 0;

  /// Data input into `stream`, in event-time order per stream. The result
  /// distinguishes clean acceptance from clamped event times and refused
  /// tuples.
  virtual core::PushResult Push(int stream, TimestampMs event_time,
                                spe::Row row) = 0;
  virtual void PushWatermark(TimestampMs watermark) = 0;

  /// Asynchronous query creation / deletion (acknowledged later).
  virtual Result<core::QueryId> Submit(const core::QueryDescriptor& desc) = 0;
  virtual Status Cancel(core::QueryId id) = 0;

  /// Periodic housekeeping from the control thread (session flush etc.).
  virtual void Pump() {}

  /// Blocks until all outstanding create/delete requests are acknowledged
  /// (the driver's backpressure ACK, Fig. 5). False on timeout.
  virtual bool WaitDeployed(TimestampMs timeout_ms) = 0;

  virtual void FinishAndWait() = 0;
  virtual void Stop() = 0;

  virtual core::QosMonitor& qos() = 0;

  /// Backpressure probe: elements queued inside the SUT.
  virtual size_t QueuedElements() const = 0;

  virtual const char* name() const = 0;
};

}  // namespace astream::harness

#endif  // ASTREAM_HARNESS_SUT_H_
