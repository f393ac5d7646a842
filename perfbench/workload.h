#ifndef ASTREAM_PERFBENCH_WORKLOAD_H_
#define ASTREAM_PERFBENCH_WORKLOAD_H_

// The benchmark's workloads: their deployment, their query fleet and the
// seeded operation script every pass of a run replays.
//
// Engine time is virtual. The script carries an event time on every
// operation and the pass sets a ManualClock to it before the call, so
// every pass of one (workload, seed, size) sees identical inputs and
// changelog positions and must produce identical outputs.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/job_config.h"
#include "workload/data_generator.h"
#include "workload/query_generator.h"

namespace astream::perfbench {

/// How a pass deploys the workload. The reference deployment is the same
/// script through one shard, unthreaded, with no memory budget.
enum class Deployment { kMeasured, kReference };

struct WorkloadSpec {
  std::string name;
  core::AStreamJob::TopologyKind topology =
      core::AStreamJob::TopologyKind::kAggregation;
  int num_streams = 1;

  // Measured deployment.
  bool threaded = false;
  int shards = 1;
  bool shard_threads = false;
  /// State budget of the measured deployment in bytes; < 0 = unlimited
  /// (0 would read ASTREAM_MEMORY_BUDGET from the environment).
  int64_t memory_budget_bytes = -1;
  size_t batch_size = 64;

  // Inputs.
  spe::Value key_max = 1000;
  /// Tuples per event-second, summed over all streams.
  int64_t event_rate = 5000;
  /// Periodic watermarks, as a source emits them. Results wait for the
  /// watermark that closes their window, which sets a latency floor of
  /// about half this interval; a tighter cadence left the result p99 at
  /// the mercy of millisecond host and wake-up stalls.
  TimestampMs watermark_every_ms = 100;

  // Query fleet. Slot i holds a query whose window is
  // Sliding(window_base_ms * (1 + i % window_mix), window_base_ms) and
  // whose predicates pass selectivity[i % size] of the field domain; the
  // seed draws predicate columns and directions. Pinning window and
  // selectivity per slot keeps the work volume independent of the seed.
  int fleet = 32;
  TimestampMs window_base_ms = 250;
  int window_mix = 8;
  std::vector<double> selectivity = {0.2, 0.4, 0.6, 0.8};
  /// Event time between churn points in the timed part: at each one the
  /// oldest query is cancelled and a fresh one takes its slot. Queries are
  /// anchored at their creation marker, so an interval that is not a
  /// multiple of the slide spreads the fleet over a few window phases,
  /// as ad-hoc arrivals do; the interval fixes how many (the slide over
  /// gcd(interval, slide)), independent of the seed.
  TimestampMs churn_every_ms = 375;

  /// Event time of the timed part.
  TimestampMs timed_ms = 20'000;

  /// The untimed warm-up prefix: the longest window plus one slide.
  TimestampMs WarmupMs() const { return window_base_ms * (window_mix + 1); }
  /// Threads the measured deployment runs, counting the generator.
  int Threads() const;
};

/// The named workload, sized so that its timed part holds
/// `timed_tuples` tuples. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, int64_t timed_tuples,
                  WorkloadSpec* spec);

/// The fully pinned deployment configuration of one pass.
/// `measure_overhead` turns on the engine's per-operator timing counters
/// (traced passes only).
JobConfig MakeJobConfig(const WorkloadSpec& spec, Deployment deployment,
                        Clock* clock, bool measure_overhead);

/// The configuration as one JSON object (every knob the workload pins).
std::string JobConfigJson(const JobConfig& config);

/// One scripted operation.
struct Op {
  enum class Kind {
    kDeploy,     // submit `submits` into `slots` as one changelog, then ack
    kPush,       // push `row` on `stream` at `time`
    kWatermark,  // advance the watermark to `time`
    kChurn,      // cancel the query of `slots[0]`, submit `submits[0]` there
    kTimedStart, // end of the warm-up prefix: timing starts here
  };
  Kind kind = Kind::kPush;
  TimestampMs time = 0;
  int stream = 0;
  spe::Row row;
  std::vector<core::QueryDescriptor> submits;
  std::vector<int> slots;  // fleet slot of each submit
};

/// The seeded script of a workload, generated on the fly: the warm-up
/// prefix with the standing fleet's deploys, kTimedStart, then the timed
/// part with its churn points. Slot s first deploys at the window phase
/// it would get from churn point s + 1, so the fleet starts spread over
/// its window phases as churn keeps it, not with every window closing at
/// once. Control operations are stamped one millisecond before the next
/// data so that their changelog marker never clamps a tuple.
class Script {
 public:
  Script(const WorkloadSpec& spec, uint64_t seed);

  /// The next operation, or false at the end of the script.
  bool Next(Op* op);

  /// Event time at which the timed part starts.
  TimestampMs timed_start_ms() const { return timed_start_; }
  TimestampMs end_ms() const { return end_; }

 private:
  core::QueryDescriptor QueryForSlot(int slot);
  core::Predicate PinnedPredicate(double selectivity);

  WorkloadSpec spec_;
  workload::QueryGenerator queries_;
  std::vector<workload::DataGenerator> data_;
  TimestampMs timed_start_ = 0;
  TimestampMs end_ = 0;

  /// Marker time -> slots of the fleet's initial deploys.
  std::map<TimestampMs, std::vector<int>> deploys_;
  bool done_ = false;
  TimestampMs now_ = 1;          // current millisecond
  int64_t pushed_in_ms_ = 0;     // tuples of `now_` already pushed
  int64_t due_in_ms_ = 0;        // tuples due in `now_`
  bool timed_start_emitted_ = false;
  int next_stream_ = 0;
  TimestampMs next_churn_ = 0;  // marker time of the next churn point
  int churned_ = 0;              // churn points so far
};

}  // namespace astream::perfbench

#endif  // ASTREAM_PERFBENCH_WORKLOAD_H_
