#ifndef ASTREAM_CORE_ARRANGEMENT_H_
#define ASTREAM_CORE_ARRANGEMENT_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/owned_counter.h"
#include "core/cl_table.h"
#include "core/slice_store.h"
#include "core/window_math.h"

namespace astream::core {

/// Shared arrangements (DESIGN.md §12, after McSherry et al., PAPERS.md).
///
/// An arrangement is the multiversioned, keyed, arena-backed index of one
/// stream's state inside a shared operator: version = runtime-slice index,
/// payload = that slice's keyed store. The shared operators no longer own
/// loose per-slice store maps — they write through StoreAt(version) and
/// read through versioned cursors (AtVersion / Compose), which centralizes
/// eviction, spill-victim selection, byte accounting and checkpointing in
/// one layer, and lets many queries with different windows read one
/// maintained index instead of each paying for its own.

/// Tuple arrangement of one join side: slice index -> TupleStore.
class TupleArrangement {
 public:
  static constexpr int64_t kNoVersion = std::numeric_limits<int64_t>::max();

  /// Enables spilling for stores created from here on.
  void BindSpill(storage::SpillSpace* space) { spill_ = space; }

  /// Enables background run compaction for this side's stores.
  void BindCompactor(storage::Compactor* compactor) {
    compactor_ = compactor;
  }

  /// Access-aware eviction (DESIGN.md §13): PickVictim weighs per-version
  /// read counts so standing queries stop re-loading the slice they read
  /// every slide. Off = PickVictim degenerates to ColdestResident.
  void SetAccessAware(bool on) { access_aware_ = on; }

  /// Records that `version` was read by a trigger (operators call this
  /// from their window-evaluation paths).
  void NoteRead(int64_t version) {
    if (access_aware_) ++reads_[version];
  }

  /// Spill victim under the current policy: the resident version with the
  /// fewest recorded reads (ties to the oldest), or simply the coldest
  /// when access-awareness is off. `*reads` gets the victim's read count
  /// (0 when none). kNoVersion when nothing is resident.
  int64_t PickVictim(int64_t* reads) const;

  /// Writer cursor: the store of `version`, created with `mode` on first
  /// write.
  TupleStore& StoreAt(int64_t version, StoreMode mode);

  /// Versioned read cursor: nullptr when the version holds no state.
  const TupleStore* AtVersion(int64_t version) const;

  /// Mode-switch marker: convert every live version's physical layout.
  void ConvertAll(StoreMode mode);

  /// Drops every version <= max_version (slice eviction is prefix-only).
  void EvictThrough(int64_t max_version);

  /// Lowest version still holding resident tuples (the spill victim), or
  /// kNoVersion when nothing is resident.
  int64_t ColdestResident() const;

  /// Spills the store at `version` (if present). Returns bytes released.
  size_t SpillAt(int64_t version);

  /// Accumulates this side's footprint into the operator's accounting:
  /// arena bytes, resident bytes, and the coldest resident version.
  void AddBytes(int64_t* arena_bytes, size_t* resident_bytes,
                int64_t* coldest_resident) const;

  size_t NumVersions() const { return stores_.size(); }

  /// Checkpointing: count-prefixed (version, store) pairs — the format the
  /// pre-arrangement operators wrote, so run files round-trip unchanged.
  void Serialize(spe::StateWriter* writer) const;
  Status Restore(spe::StateReader* reader);

 private:
  std::map<int64_t, TupleStore> stores_;
  storage::SpillSpace* spill_ = nullptr;
  storage::Compactor* compactor_ = nullptr;
  bool access_aware_ = false;
  /// version -> trigger reads since creation (pruned with eviction).
  std::map<int64_t, int64_t> reads_;
};

/// One joined tuple of a slice pair, with its combined CL-masked tag set.
struct JoinedTuple {
  spe::Row row;
  QuerySet tags;
};

/// Memo of joined slice pairs (versions a x b): each pair is joined exactly
/// once, ever; every query and window instance covering the pair reuses
/// the result. Derived state — never checkpointed, dropped on restore.
class JoinMemo {
 public:
  /// The memoized result for (a, b), or nullptr (counts a hit when found).
  const std::vector<JoinedTuple>* Find(int64_t a, int64_t b);

  /// Creates the (empty) entry for (a, b) to be filled by the caller
  /// (counts a miss).
  std::vector<JoinedTuple>& Emplace(int64_t a, int64_t b);

  /// Drops entries touching any version <= max_version.
  void EvictThrough(int64_t max_version);

  void Clear() { memo_.clear(); }
  size_t NumEntries() const { return memo_.size(); }
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  std::map<std::pair<int64_t, int64_t>, std::vector<JoinedTuple>> memo_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

/// Aggregation arrangement: slice index -> group-shared partials, plus a
/// composition memo so overlapping windows (and windows of different
/// queries over the same slices) reuse composed spans instead of
/// re-merging every slice per trigger.
///
/// Composition follows the canonical greedy aligned-block decomposition:
/// a span [i..last] is covered left to right by the largest
/// power-of-two-aligned blocks that fit; blocks of level >= 1 are memoized
/// by (level, base). Inside a block every group's tag set is masked to the
/// block's end via the CL table; when a block is merged into a wider span
/// the bridge mask Mask(span_end, block_end) is ANDed on top — by Eq. 1's
/// transitivity (Mask(L, s) == Mask(L, j) & Mask(j, s) for s <= j <= L)
/// the result is exactly the per-slice masking the pre-arrangement
/// operator computed, so outputs stay byte-identical.
///
/// Memo safety: a span is only composed for a trigger whose end is at or
/// below the watermark, and inserts carry event times at or above it, so
/// composed slices are frozen; CL masks between existing slices never
/// change. The memo is derived state: never checkpointed, dropped on
/// restore and released first under spill pressure.
class AggArrangement {
 public:
  using Group = AggStore::Group;
  /// Composed view of a span: key -> groups, tags masked to the span end.
  using Composed = std::map<spe::Value, std::vector<Group>>;

  static constexpr int64_t kNoVersion = TupleArrangement::kNoVersion;
  /// Blocks span at most 2^kMaxLevel slices; wider spans compose from
  /// several blocks. Bounds memo growth per trigger range.
  static constexpr int kMaxLevel = 6;

  void BindSpill(storage::SpillSpace* space) { spill_ = space; }

  /// See TupleArrangement.
  void BindCompactor(storage::Compactor* compactor) {
    compactor_ = compactor;
  }
  void SetAccessAware(bool on) { access_aware_ = on; }
  void NoteRead(int64_t version) {
    if (access_aware_) ++reads_[version];
  }
  int64_t PickVictim(int64_t* reads) const;

  /// Writer cursor: the store of `version`, created on first write.
  AggStore& StoreAt(int64_t version);

  /// Versioned read cursor: nullptr when the version holds no partials.
  const AggStore* AtVersion(int64_t version) const;

  /// Composes the span covered by `slices` (contiguous, ascending), with
  /// every group's tags masked to the last slice via `cl`. With `memoize`
  /// set, aligned sub-blocks are cached for reuse by later triggers.
  Composed Compose(const std::vector<SliceInfo>& slices, ClTable* cl,
                   bool memoize);

  /// Drops every version <= max_version and every memo block touching one.
  void EvictThrough(int64_t max_version);

  /// Drops the whole composition memo (spill pressure, restore). Returns
  /// the estimated bytes released.
  size_t ReleaseMemo();

  /// Lowest version still holding resident partials, or kNoVersion.
  int64_t ColdestResident() const;
  size_t SpillAt(int64_t version);
  void AddBytes(int64_t* arena_bytes, size_t* resident_bytes,
                int64_t* coldest_resident) const;

  size_t NumVersions() const { return stores_.size(); }
  /// Any thread may read the memo counters while the task thread runs.
  int64_t memo_hits() const { return memo_hits_.Get(); }
  int64_t memo_misses() const { return memo_misses_.Get(); }
  size_t memo_bytes() const { return static_cast<size_t>(memo_bytes_.Get()); }
  size_t memo_blocks() const { return memo_.size(); }

  /// Checkpointing: stores only (same wire format as the pre-arrangement
  /// operator); the memo is rebuilt on demand.
  void Serialize(spe::StateWriter* writer) const;
  Status Restore(spe::StateReader* reader);

 private:
  using BlockKey = std::pair<int, int64_t>;  // (level, base)

  /// The composed block [base, base + 2^level), masked to its last slice.
  std::shared_ptr<const Composed> Block(int level, int64_t base, ClTable* cl,
                                        bool memoize);

  std::map<int64_t, AggStore> stores_;
  std::map<BlockKey, std::shared_ptr<const Composed>> memo_;
  OwnedCounter memo_hits_;
  OwnedCounter memo_misses_;
  OwnedCounter memo_bytes_;
  storage::SpillSpace* spill_ = nullptr;
  storage::Compactor* compactor_ = nullptr;
  bool access_aware_ = false;
  std::map<int64_t, int64_t> reads_;
};

}  // namespace astream::core

#endif  // ASTREAM_CORE_ARRANGEMENT_H_
