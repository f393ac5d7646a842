#ifndef ASTREAM_STORAGE_COMPACTOR_H_
#define ASTREAM_STORAGE_COMPACTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "storage/spill_space.h"

namespace astream::storage {

/// One scheduled fold of a store's oldest spilled runs into a single
/// larger sorted run (DESIGN.md §13).
///
/// Handoff protocol: the owning store snapshots a contiguous *prefix* of
/// its run list (oldest first) into the ticket and keeps appending new
/// spills behind it. The compactor merges the inputs in (key, input
/// index) order — exactly the tie order KWayMerge gives those sources in
/// any read — so swapping the prefix for the output run preserves the
/// store's global merge order bit for bit, no matter when the swap
/// happens. The store adopts the result on its own task thread
/// (AdoptCompaction) the next time it touches its runs; `state` is the
/// release/acquire fence that makes `output` safe to read.
class CompactionTicket {
 public:
  enum class State : uint8_t { kPending, kDone, kFailed };

  State state() const { return state_.load(std::memory_order_acquire); }
  const std::vector<SpilledRunPtr>& inputs() const { return inputs_; }
  /// Valid only after state() returned kDone.
  const SpilledRunPtr& output() const { return output_; }

 private:
  friend class Compactor;
  std::vector<SpilledRunPtr> inputs_;
  SpilledRunPtr output_;
  std::atomic<State> state_{State::kPending};
};

using CompactionTicketPtr = std::shared_ptr<CompactionTicket>;

/// Folds small spilled runs into larger ones off the hot path, so a
/// standing query that spills every slide does not degrade into an
/// ever-wider merge fan-in on every read.
///
/// Two modes:
///  - sync: Submit() compacts inline on the caller's (task) thread and
///    returns a settled ticket. Deterministic — the mode every
///    equivalence and chaos suite runs, and the default when the job
///    itself is single-threaded.
///  - worker: Start() spawns one background thread that drains the queue;
///    Submit() returns a pending ticket. Input runs are immutable and the
///    output becomes a run only at a clean Finish, so the worker never
///    touches store state — the only shared point is the ticket.
///
/// Failure (injected via FaultPoint::kCompaction / kStorageWrite, a real
/// write error, or an input that cannot be read) settles the ticket
/// kFailed with the inputs untouched; the store just keeps its existing
/// runs (and hits an unreadable one on its own next read). A crash that
/// kills the worker mid-write frees the output's extents — never a
/// half-adopted run.
class Compactor {
 public:
  struct Options {
    /// Compact inline in Submit() instead of on the worker thread.
    bool sync = false;
    /// Stores schedule a compaction once they hold at least this many
    /// runs (MinRunsToCompact guards the call sites).
    size_t min_runs = 4;
  };

  Compactor(SpillSpace* space, Options options);
  ~Compactor();

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  /// Spawns the worker (no-op in sync mode). Safe to call once.
  void Start();
  /// Drains the queue and joins the worker. Idempotent; the destructor
  /// calls it too.
  void Stop();

  /// Schedules `inputs` (>= 2 runs, a store's oldest-first prefix) to be
  /// folded into one run, written with the space's writer options. Sync
  /// mode settles the ticket before returning.
  CompactionTicketPtr Submit(std::vector<SpilledRunPtr> inputs);

  size_t min_runs() const { return options_.min_runs; }
  bool sync() const { return options_.sync; }

  /// Cumulative input runs folded away (gauge storage.compaction_runs).
  int64_t runs_compacted() const {
    return runs_compacted_.load(std::memory_order_relaxed);
  }
  /// Cumulative time spent compacting (gauge storage.compaction_ms).
  int64_t total_ms() const {
    return total_ms_.load(std::memory_order_relaxed);
  }
  int64_t jobs_failed() const {
    return jobs_failed_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();
  void Process(CompactionTicket* ticket);

  SpillSpace* const space_;
  const Options options_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<CompactionTicketPtr> queue_;
  bool stopping_ = false;
  std::thread worker_;
  bool started_ = false;

  std::atomic<int64_t> runs_compacted_{0};
  std::atomic<int64_t> total_ms_{0};
  std::atomic<int64_t> jobs_failed_{0};
};

}  // namespace astream::storage

#endif  // ASTREAM_STORAGE_COMPACTOR_H_
