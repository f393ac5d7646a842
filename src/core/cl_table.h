#ifndef ASTREAM_CORE_CL_TABLE_H_
#define ASTREAM_CORE_CL_TABLE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/query.h"
#include "storage/spill_space.h"

namespace astream::core {

/// Changelog-set table over window slices (Sec. 2.1.2, Eq. 1).
///
/// Every slice i carries a delta mask: the changelog-set between slice i-1
/// and slice i (all-ones when no query changed at that boundary). The mask
/// between two slices j <= i is
///
///     CL[i][j] = 1                         if i == j
///     CL[i][j] = CL[i-1][j] & delta[i]     if i >  j        (Eq. 1)
///
/// i.e. bit q survives iff slot q was never touched by a changelog in the
/// span (j, i]. Combining tuples/partials from slices i and j is valid for
/// query slot q only if CL[i][j] has bit q — this is what makes bitwise
/// operations between tuples born under different query populations
/// consistent, including after slot reuse.
///
/// Memoized masks are laid out per slice: slice i owns the row of masks
/// CL[i][j], indexed by the span length i - j. A row lives and dies with
/// its slice, so EvictBelow pops whole rows from the deque front (wholesale
/// free, the same lifetime discipline as the slice-store arenas) instead of
/// scanning a global (i, j) hash map.
class ClTable {
 public:
  /// Registers slice `index` (consecutive, increasing) with the delta mask
  /// at its left boundary and the slot-universe size at creation time.
  /// `delta` must be all-ones over the universe if no changelog occurred
  /// at the boundary.
  void AddSlice(int64_t index, QuerySet delta, size_t num_slots);

  /// CL mask between slices i and j (order-insensitive). Both slices must
  /// be registered and not evicted. The returned reference is valid only
  /// until the next Mask / AddSlice / EvictBelow call (memo rows are
  /// vectors and may reallocate) — consume it before touching the table.
  const QuerySet& Mask(int64_t i, int64_t j);

  /// Convenience: Mask(i, j).Test(slot).
  bool SlotUnchanged(int64_t i, int64_t j, int slot) {
    return Mask(i, j).Test(slot);
  }

  /// Drops all state for slices with index < min_index.
  void EvictBelow(int64_t min_index);

  /// Out-of-core: writes the delta masks of all resident slices with
  /// index <= max_index into one run (key = slice index) and drops their
  /// deltas and memo rows from memory. Masks touching a spilled slice are
  /// recomputed on demand after an automatic delta reload (EnsureDelta).
  /// Returns an estimate of the bytes released; 0 if nothing was resident
  /// in range or the write failed (state then unchanged).
  size_t SpillBelow(int64_t max_index, storage::SpillSpace* space);

  /// Slices whose delta currently lives on disk (observability/tests).
  size_t NumSpilledDeltas() const;

  int64_t first_index() const { return first_index_; }
  int64_t last_index() const { return first_index_ + Size() - 1; }
  int64_t Size() const { return static_cast<int64_t>(deltas_.size()); }

  /// Number of memoized masks currently held (observability/tests).
  size_t MemoSize() const { return memo_entries_; }

  /// Checkpointing: deltas and indices only (the memo is recomputable).
  void Serialize(spe::StateWriter* writer) const;
  Status Restore(spe::StateReader* reader);

 private:
  struct SliceEntry {
    QuerySet delta;
    size_t num_slots = 0;
    /// Memoized masks of this slice: row[d] = CL[i][i - d] for this
    /// slice's index i. Evicted wholesale with the slice.
    std::vector<std::optional<QuerySet>> row;
    /// Delta lives in `run` (keyed by slice index), not in `delta`.
    bool spilled = false;
    storage::SpilledRunPtr run;
  };

  const QuerySet& ComputeMask(int64_t i, int64_t j);
  /// Reloads a spilled delta into the entry (no-op when resident).
  void EnsureDelta(SliceEntry& e, int64_t index);
  /// Read-only delta access that works for spilled entries (Serialize).
  /// Throws storage::SpillReadError when a spilled delta cannot be read.
  QuerySet DeltaOf(const SliceEntry& e, int64_t index) const;

  SliceEntry& Entry(int64_t index) {
    return deltas_[static_cast<size_t>(index - first_index_)];
  }
  /// The memo cell for CL[i][j], growing slice i's row as needed.
  std::optional<QuerySet>& Cell(int64_t i, int64_t j) {
    SliceEntry& e = Entry(i);
    const size_t d = static_cast<size_t>(i - j);
    if (e.row.size() <= d) e.row.resize(d + 1);
    return e.row[d];
  }

  int64_t first_index_ = 0;
  std::deque<SliceEntry> deltas_;
  size_t memo_entries_ = 0;
};

}  // namespace astream::core

#endif  // ASTREAM_CORE_CL_TABLE_H_
