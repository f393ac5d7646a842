#ifndef ASTREAM_CORE_SLICE_STORE_H_
#define ASTREAM_CORE_SLICE_STORE_H_

#include <functional>
#include <memory>
#include <scoped_allocator>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "core/query.h"
#include "spe/aggregate.h"
#include "spe/state.h"
#include "storage/compactor.h"
#include "storage/merge.h"
#include "storage/spill_space.h"

namespace astream::core {

/// Physical layout of a slice's tuples (Sec. 3.1.4 / 3.2.3).
enum class StoreMode : uint8_t {
  /// Tuples grouped by their query-set; joining prunes whole group pairs
  /// whose query-sets do not intersect. Wins with few concurrent queries.
  kGrouped,
  /// Flat per-key lists with per-tuple query-sets. Wins once most groups
  /// would hold a single tuple (> ~10 concurrent queries in the paper's
  /// experiments).
  kList,
};

/// Tuples of one slice of one join side. Each tuple is stored exactly once
/// (Sec. 3.2.2: no data copy inside slices).
///
/// All container memory (hash buckets, map nodes, row vectors) lives in a
/// per-store bump-pointer arena: a slice's bookkeeping is allocated with
/// pointer bumps and freed wholesale when the slice expires and its store
/// is destroyed — no per-node free traffic on the eviction path. Row
/// payloads are NOT in the arena: rows are copy-on-write and shared across
/// slices, queries and operators; the arena owns only this slice's view of
/// them.
///
/// Out-of-core (DESIGN.md §10): a store bound to a SpillSpace can move its
/// entire resident population to an immutable key-sorted spilled run
/// (SpillToDisk) — the arena and containers are rebuilt from scratch, so
/// the memory is actually returned, not just logically cleared. A store
/// may hold several runs (it keeps receiving inserts after a spill).
/// A join with runs on one side probes: each spilled entry's key is
/// looked up in the other side's resident index, and only a hit decodes
/// the entry. Runs on both sides join as a streaming group-wise sorted
/// merge (one key group in memory per side). Full logical content is
/// still reachable via ForEach/Serialize, so checkpoints and mode
/// semantics are unchanged.
class TupleStore {
 public:
  explicit TupleStore(StoreMode mode);

  /// Enables SpillToDisk; unbound stores never spill.
  void BindSpill(storage::SpillSpace* space) { spill_ = space; }

  /// Enables background run compaction: SpillToDisk schedules a fold of
  /// the oldest runs once their count reaches the compactor's threshold,
  /// and read/spill paths adopt finished results (AdoptCompaction).
  void BindCompactor(storage::Compactor* compactor) {
    compactor_ = compactor;
  }

  void Insert(const spe::Row& row, const QuerySet& tags);

  /// Converts the physical layout in place (triggered by the shared
  /// session's mode-switch marker or the adaptive heuristic). Applies to
  /// resident tuples; spilled runs are layout-free (sorted by key).
  void ConvertTo(StoreMode mode);

  StoreMode mode() const { return mode_; }
  size_t NumTuples() const { return num_tuples_; }
  size_t NumResidentTuples() const { return resident_tuples_; }
  bool HasSpill() const { return !runs_.empty(); }
  /// Number of distinct query-set groups (grouped mode; == NumTuples in
  /// list mode where grouping is abandoned). Resident tuples only.
  size_t NumGroups() const;
  /// Average tuples per query-set group — the paper's switch heuristic
  /// ("if the average is less than two ... switch to a list").
  double AvgGroupSize() const;

  /// Arena footprint of this store's bookkeeping (the arena-bytes gauge).
  size_t ArenaBytes() const { return res_->arena->bytes_reserved(); }

  /// Estimated resident footprint: arena bookkeeping plus the (heap) row
  /// payloads this store keeps alive. Rows shared with other stores are
  /// counted in each — an upper bound, which is the safe direction for a
  /// budget.
  size_t ResidentBytes() const {
    return res_->arena->bytes_reserved() + payload_bytes_;
  }

  /// Spills every resident tuple as one key-sorted run and rebuilds the
  /// store empty. Returns the resident bytes released; 0 when unbound,
  /// empty, or the write failed (the store is then left untouched).
  size_t SpillToDisk();

  /// Emits every (rowA, rowB, tagsA & tagsB & mask) with rowA from `a`,
  /// rowB from `b`, equal keys, and a non-empty combined tag set.
  /// `mask` is the CL-set between the two slices.
  using JoinEmit = std::function<void(const spe::Row& left,
                                      const spe::Row& right,
                                      QuerySet tags)>;
  /// Returns the number of bitset AND/intersection operations performed
  /// (Fig. 18 overhead accounting). Fully resident stores use the hash
  /// paths. When one side holds runs, its resident tail hash-joins and
  /// its runs are read key first and probed against the other side's
  /// resident index, decoding only the entries whose key is there. When
  /// both do, the join is a sorted group-wise merge. No path
  /// rematerializes a run in memory.
  static int64_t Join(const TupleStore& a, const TupleStore& b,
                      const QuerySet& mask, const JoinEmit& emit);

  /// One tuple of a sorted scan.
  struct ScanEntry {
    int64_t key = 0;
    spe::Row row;
    QuerySet tags;
  };

  /// Streaming key-ordered view over resident tuples + all runs. Its
  /// readers hold the runs they read, so eviction of the store mid-scan
  /// cannot free their extents under the iterator. Memory: one run block
  /// per run plus the sorted resident snapshot. A run that cannot be read
  /// back throws storage::SpillReadError from Next (and from SortedScan,
  /// which reads every run's first block).
  class SortedStream {
   public:
    bool Next(ScanEntry* out) { return merge_->Next(out); }

   private:
    friend class TupleStore;
    SortedStream() = default;
    std::vector<ScanEntry> resident_;
    size_t resident_pos_ = 0;
    std::vector<std::unique_ptr<storage::SpillReader>> readers_;
    std::unique_ptr<storage::KWayMerge<ScanEntry>> merge_;
  };
  std::unique_ptr<SortedStream> SortedScan() const;

  /// Calls fn(row, tags) for every stored tuple — spilled runs first (in
  /// spill order), then resident. Throws storage::SpillReadError when a
  /// run cannot be read back, so a checkpoint never lacks spilled state.
  void ForEach(
      const std::function<void(const spe::Row&, const QuerySet&)>& fn) const;

  void Serialize(spe::StateWriter* writer) const;
  static TupleStore Deserialize(spe::StateReader* reader);

 private:
  template <typename T>
  using AA = ArenaAllocator<T>;
  // scoped_allocator_adaptor propagates the arena into nested containers
  // (map -> vector) at construction, so groups_[tags][key].push_back(row)
  // bumps one arena end to end.
  using RowVec = std::vector<spe::Row, AA<spe::Row>>;
  using KeyedRows = std::unordered_map<
      spe::Value, RowVec, std::hash<spe::Value>, std::equal_to<spe::Value>,
      std::scoped_allocator_adaptor<AA<std::pair<const spe::Value, RowVec>>>>;
  using TaggedRow = std::pair<spe::Row, QuerySet>;
  using TaggedVec = std::vector<TaggedRow, AA<TaggedRow>>;
  using KeyedTagged = std::unordered_map<
      spe::Value, TaggedVec, std::hash<spe::Value>,
      std::equal_to<spe::Value>,
      std::scoped_allocator_adaptor<
          AA<std::pair<const spe::Value, TaggedVec>>>>;
  using GroupedMap = std::unordered_map<
      QuerySet, KeyedRows, DynamicBitsetHash, std::equal_to<QuerySet>,
      std::scoped_allocator_adaptor<AA<std::pair<const QuerySet, KeyedRows>>>>;

  /// Resident state as one unit: spilling destroys and rebuilds the whole
  /// struct, which is the only way arena-backed containers actually give
  /// memory back (the arena frees wholesale on destruction).
  struct Resident {
    Resident();
    // Declared before the containers (and so destroyed after them): the
    // unique_ptr keeps the arena's address stable across store moves.
    std::unique_ptr<Arena> arena;
    // kGrouped: query-set -> key -> rows.
    GroupedMap groups;
    // kList: key -> (row, tags).
    KeyedTagged list;
  };

  void ForEachResident(
      const std::function<void(const spe::Row&, const QuerySet&)>& fn) const;
  /// Rows of one key with their tag sets, pointing into a resident store.
  using RowRefs = std::vector<std::pair<const spe::Row*, const QuerySet*>>;
  /// Appends the resident rows of `key` (one hash lookup per list, or per
  /// query-set group in grouped mode).
  void CollectResident(spe::Value key, RowRefs* out) const;
  /// The three Join paths: resident x resident (runs ignored), one side
  /// with runs probing the other's resident index, and runs on both sides.
  static int64_t HashJoin(const TupleStore& a, const TupleStore& b,
                          const QuerySet& mask, const JoinEmit& emit);
  static int64_t ProbeJoin(const TupleStore& a, const TupleStore& b,
                           const QuerySet& mask, const JoinEmit& emit);
  static int64_t MergeJoin(const TupleStore& a, const TupleStore& b,
                           const QuerySet& mask, const JoinEmit& emit);
  /// Folds a settled compaction into runs_ (swap the input prefix for the
  /// output run) and/or schedules a new one. Called from the owning task
  /// thread's read and spill paths; const because reads are const — the
  /// run list is physical layout, not logical state.
  void AdoptCompaction() const;
  void MaybeScheduleCompaction() const;

  StoreMode mode_;
  size_t num_tuples_ = 0;
  size_t resident_tuples_ = 0;
  size_t payload_bytes_ = 0;
  std::unique_ptr<Resident> res_;
  storage::SpillSpace* spill_ = nullptr;
  storage::Compactor* compactor_ = nullptr;
  mutable std::vector<storage::SpilledRunPtr> runs_;
  mutable storage::CompactionTicketPtr compaction_;
};

/// Per-slice intermediate aggregates (Sec. 3.1.5 + DESIGN.md §12): instead
/// of materializing tuples, each slice keeps, per key, *group-shared*
/// partials — one accumulator per distinct query-set group. Every query
/// whose slot is in a group's tag set reads the same accumulator, so a
/// tuple costs one Add per distinct aggregated column no matter how many
/// queries cover the slice; the pre-arrangement layout (one accumulator
/// per query slot) is the degenerate case where every group is the
/// singleton of one slot, which is exactly what the operator feeds this
/// store when cross-window sharing is disabled.
///
/// Backed by the same per-store arena scheme as TupleStore, with the same
/// spill contract: SpillToDisk writes a key-sorted run of (key, groups)
/// entries and rebuilds the resident side empty; finalize reads through
/// ForEachGroupsMerged, which folds same-key groups across the resident
/// population and every run in one streaming pass.
class AggStore {
 public:
  /// One shared partial: the accumulator of every tuple that arrived with
  /// exactly this (masked) tag set.
  struct Group {
    QuerySet tags;
    spe::Accumulator acc;
  };

  AggStore();

  /// Enables SpillToDisk; unbound stores never spill.
  void BindSpill(storage::SpillSpace* space) { spill_ = space; }

  /// See TupleStore::BindCompactor.
  void BindCompactor(storage::Compactor* compactor) {
    compactor_ = compactor;
  }

  /// Folds `value` into the group of `tags` under `key`, creating the
  /// group on first touch. `tags` must be non-empty.
  void Add(spe::Value key, const QuerySet& tags, spe::Value value);

  /// The merged accumulator over every group whose tag set contains
  /// `slot` — the per-query view of the shared partials. Resident side
  /// only (tests/diagnostics); finalize paths go through the arrangement.
  spe::Accumulator SlotAccumulator(spe::Value key, int slot) const;

  /// Calls fn(key, groups, count) for every key, resident + spilled. With
  /// no runs this iterates the resident map directly (unordered);
  /// otherwise keys stream in ascending order with same-key, same-tag
  /// groups folded. Callers must not retain the pointer past the call.
  using GroupsFn =
      std::function<void(spe::Value, const Group*, size_t)>;
  void ForEachGroupsMerged(const GroupsFn& fn) const;

  /// Resident keys (spilled keys are not counted; a key present both
  /// resident and in runs counts once).
  size_t NumKeys() const { return res_->keys.size(); }
  bool HasSpill() const { return !runs_.empty(); }

  /// Arena footprint of this store's bookkeeping (the arena-bytes gauge).
  size_t ArenaBytes() const { return res_->arena->bytes_reserved(); }
  /// Accumulators and bookkeeping both live in the arena.
  size_t ResidentBytes() const { return res_->arena->bytes_reserved(); }

  /// Spills all resident partials as one key-sorted run and rebuilds the
  /// store empty. Returns resident bytes released; 0 when unbound, empty,
  /// or the write failed.
  size_t SpillToDisk();

  void Serialize(spe::StateWriter* writer) const;
  static AggStore Deserialize(spe::StateReader* reader);

 private:
  template <typename T>
  using AA = ArenaAllocator<T>;
  using GroupVec = std::vector<Group, AA<Group>>;
  using KeyedGroups = std::unordered_map<
      spe::Value, GroupVec, std::hash<spe::Value>, std::equal_to<spe::Value>,
      std::scoped_allocator_adaptor<AA<std::pair<const spe::Value, GroupVec>>>>;

  /// See TupleStore::Resident.
  struct Resident {
    Resident();
    std::unique_ptr<Arena> arena;
    // key -> query-set groups (linear scan: distinct tag sets per key are
    // few — typically one per changelog generation the slice spans).
    KeyedGroups keys;
  };

  struct ScanEntry {
    int64_t key = 0;
    std::vector<Group> groups;
  };

  /// Merged ascending-key iteration over resident + runs; fn sees each
  /// key once with its fully folded group vector.
  void ForEachMergedEntry(
      const std::function<void(spe::Value, const std::vector<Group>&)>& fn)
      const;
  /// See TupleStore::AdoptCompaction / MaybeScheduleCompaction.
  void AdoptCompaction() const;
  void MaybeScheduleCompaction() const;

  std::unique_ptr<Resident> res_;
  storage::SpillSpace* spill_ = nullptr;
  storage::Compactor* compactor_ = nullptr;
  mutable std::vector<storage::SpilledRunPtr> runs_;
  mutable storage::CompactionTicketPtr compaction_;
};

}  // namespace astream::core

#endif  // ASTREAM_CORE_SLICE_STORE_H_
