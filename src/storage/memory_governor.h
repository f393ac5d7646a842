#ifndef ASTREAM_STORAGE_MEMORY_GOVERNOR_H_
#define ASTREAM_STORAGE_MEMORY_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <utility>

namespace astream::storage {

/// Job-level out-of-core configuration (facade Options.storage).
struct StorageOptions {
  /// State-memory budget in bytes. 0 = use ASTREAM_MEMORY_BUDGET from the
  /// environment (unlimited when unset); < 0 = force-unlimited regardless
  /// of the environment (reference runs in A/B tests); > 0 = explicit cap.
  int64_t memory_budget_bytes = 0;
  /// When false and a budget is set, stores never spill; the facade
  /// reports backpressure (PushResult::kBackpressure) once over budget.
  bool allow_spill = true;
  /// Parent of each engine's private spill dir (created, and removed on
  /// shutdown, by SpillSpace). Empty = the system temp dir.
  std::string spill_dir;
  /// LZ-compress spilled run blocks (format v2, DESIGN.md §13). Off
  /// writes v2 files with raw blocks.
  bool compress_spill = true;
  /// Fold small spilled runs into larger sorted ones in the background
  /// (inline when the job is single-threaded, so outputs stay
  /// deterministic).
  bool compaction = true;
  /// A store schedules a compaction once it holds this many runs.
  size_t compaction_min_runs = 4;
  /// Aggregation and multiway victim selection counts per-slice reads: a
  /// slice a standing query re-reads every slide stops being evicted even
  /// when it is the coldest by window end. Off = plain coldest-first. The
  /// binary join ignores it and always spills its oldest slice: its pair
  /// memo reads a slice only for pairs with newer slices, so past reads
  /// do not predict future ones (DESIGN.md §13.4).
  bool access_aware_eviction = true;
};

/// "8m", "64k", "1g", "1048576" -> bytes; 0 on empty/unparseable input.
int64_t ParseByteSize(const std::string& text);

/// ASTREAM_MEMORY_BUDGET from the environment, 0 when unset/invalid.
int64_t BudgetFromEnv();

/// The effective cap: > 0 budget in bytes, or 0 for unlimited.
int64_t ResolveMemoryBudget(const StorageOptions& options);

/// A store-owning operator that can shed memory by spilling its coldest
/// slice to disk. SpillOnce is only ever invoked on the client's own task
/// thread (from its Enforce call), so implementations need no locking
/// against concurrent store access.
class SpillClient {
 public:
  virtual ~SpillClient() = default;
  /// Spills one victim (coldest slice) and returns resident bytes
  /// released; 0 when nothing spillable remains (or the write failed).
  virtual size_t SpillOnce() = 0;
};

/// Global byte-budget arbiter. Each spillable operator registers, reports
/// its resident bytes + the end time of its coldest slice after every
/// mutation, then calls Enforce. While the job is over budget, Enforce
/// picks the globally coldest client: the caller spills itself inline;
/// a colder peer is flagged and spills on its own next Enforce (SpillOnce
/// always runs on the owning task thread, never under the governor lock).
///
/// With access-aware eviction the report also carries the trigger-read
/// count of the client's would-be spill victim, and victim ordering
/// becomes (victim_reads, coldest_end, client): an operator whose coldest
/// slice a standing query re-reads every slide is spared while any peer
/// holds a genuinely cold slice — the same read signal that feeds the
/// per-operator `storage.reload_saves` gauge, applied across operators.
/// With access-awareness off every report carries 0 reads and the order
/// degenerates to the original coldest-end-first. The binary join always
/// reports 0 reads.
class MemoryGovernor {
 public:
  /// budget_bytes <= 0 disables enforcement (accounting still runs).
  MemoryGovernor(int64_t budget_bytes, bool allow_spill);

  void Register(SpillClient* client);
  void Unregister(SpillClient* client);

  /// Reports a client's current resident bytes, the window end time of
  /// its coldest (earliest-ending) slice — INT64_MAX when it has nothing
  /// spillable — and the recent trigger-read count of the slice its
  /// SpillOnce would pick (0 when access-awareness is off).
  void Update(SpillClient* client, size_t resident_bytes,
              int64_t coldest_end, int64_t victim_reads = 0);

  /// Spills (via `self`) until the job is back under budget or `self` has
  /// nothing colder than its peers; flags a colder peer instead of
  /// spilling across threads.
  void Enforce(SpillClient* self);

  /// True when spilling is disabled, a budget is set, and resident state
  /// exceeds it — the facade's PushTo turns this into kBackpressure.
  /// Lock-free (one relaxed load on the ingest path).
  bool ShouldBackpressure() const {
    return !allow_spill_ && budget_ > 0 &&
           total_.load(std::memory_order_relaxed) > budget_;
  }

  int64_t budget() const { return budget_; }
  int64_t total_resident() const {
    return total_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    size_t resident = 0;
    int64_t coldest_end = INT64_MAX;
    int64_t victim_reads = 0;
    bool spill_requested = false;
  };

  /// Moves `it`'s position in the victim index to (victim_reads,
  /// coldest_end). Caller holds mutex_.
  void Reindex(std::map<SpillClient*, Entry>::iterator it,
               int64_t coldest_end, int64_t victim_reads);

  const int64_t budget_;
  const bool allow_spill_;
  std::atomic<int64_t> total_{0};
  mutable std::mutex mutex_;
  std::map<SpillClient*, Entry> clients_;
  /// Victim index: (victim_reads, coldest_end, client) for every client
  /// with something spillable, ordered — Enforce picks *victims_.begin()
  /// in O(log n) instead of scanning all clients (the PR 5 linear scan
  /// ran once per Enforce pass on the ingest path). Least-read first, so
  /// cross-operator choice spares slices standing queries keep re-reading.
  std::set<std::tuple<int64_t, int64_t, SpillClient*>> victims_;
};

}  // namespace astream::storage

#endif  // ASTREAM_STORAGE_MEMORY_GOVERNOR_H_
