#ifndef ASTREAM_PERFBENCH_PASS_H_
#define ASTREAM_PERFBENCH_PASS_H_

// One pass: the workload's script replayed through a fresh
// astream::Client, closed loop (as fast as Push accepts) or open loop (on
// a wall schedule), with every result folded into an order-insensitive
// hash. With tracing on, spans wrap every call the benchmark makes into
// the engine and engine counters are sampled at a fixed event-time
// cadence.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/workload.h"
#include "shard/client.h"

namespace astream::perfbench {

/// Receives what the oracle test needs to rebuild the run offline. Calls
/// arrive on the control thread, except OnResult (on sink threads).
class PassObserver {
 public:
  virtual ~PassObserver() = default;
  /// A tuple as the engine stored it.
  virtual void OnPush(int stream, TimestampMs time, const spe::Row& row) {
    (void)stream, (void)time, (void)row;
  }
  /// Queries created or cancelled by the changelog stamped `marker_time`.
  virtual void OnChangelog(
      const std::vector<std::pair<core::QueryId, core::QueryDescriptor>>&
          created,
      const std::vector<core::QueryId>& cancelled, TimestampMs marker_time) {
    (void)created, (void)cancelled, (void)marker_time;
  }
  virtual void OnResult(core::QueryId id, const spe::Record& record) {
    (void)id, (void)record;
  }
};

struct PassOptions {
  WorkloadSpec spec;
  uint64_t seed = 1;
  Deployment deployment = Deployment::kMeasured;
  /// Open loop: replay the timed part at `offered_rate` tuples per wall
  /// second. Closed loop: push as fast as Client::Push accepts.
  bool open_loop = false;
  double offered_rate = 0;
  /// Stop right after the warm-up prefix: a set-up time sample only.
  bool setup_only = false;
  /// Spans and sampled counters (adds measure_overhead to the config).
  bool trace = false;
  PassObserver* observer = nullptr;
};

/// A closed span of the traced pass. Result callbacks are too many to
/// keep one by one (up to tens per input tuple), so consecutive callbacks
/// of one thread under one parent, within a millisecond, fold into one
/// span carrying their `count` and summed `busy_ns`.
struct Span {
  int name = 0;       // index into SpanNames()
  int parent = -1;    // index of the enclosing span, -1 for the pass
  int thread = 0;     // 0 = control thread, 1.. = other threads
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t count = 1;
  int64_t busy_ns = 0;  // callbacks: summed duration; else end - start
};

/// Span names, indexed by Span::name.
const std::vector<std::string>& SpanNames();

struct PassResult {
  bool ok = false;
  std::string error;
  std::string config_json;
  int threads_expected = 0;
  int threads_observed = 0;  // /proc/self/status Threads at the first churn

  double setup_s = 0;
  double timed_s = 0;        // first timed push until FinishAndWait returns
  int64_t timed_tuples = 0;
  uint64_t hash = 0;         // sum of per-result hashes
  int64_t outputs = 0;
  int64_t attempted = 0;
  int64_t failed = 0;

  // Open loop only, in nanoseconds. Result latencies are split by the
  // result's event time into kLatencySegments equal parts of the timed
  // part, so that a transient host stall moves one segment's percentiles
  // and a robust summary across segments can set it aside.
  static constexpr int kLatencySegments = 16;
  std::array<std::vector<float>, kLatencySegments> result_latency_ns;
  std::vector<int64_t> deploy_latency_ns;
  std::vector<float> gen_lag_ns;

  // Traced passes only: spans, then the counter samples and the final
  // engine view as JSON objects.
  std::vector<Span> spans;
  std::vector<float> sink_ns;  // every callback's duration
  std::vector<std::string> samples;
  std::string final_stats;
};

PassResult RunPass(const PassOptions& options);

/// Order-insensitive hash contribution of one result record.
uint64_t RecordHash(core::QueryId id, const spe::Record& record);

/// Exact percentile (nearest rank) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

}  // namespace astream::perfbench

#endif  // ASTREAM_PERFBENCH_PASS_H_
