#include "core/cl_table.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "spe/state.h"

namespace astream::core {

void ClTable::AddSlice(int64_t index, QuerySet delta, size_t num_slots) {
  if (deltas_.empty()) {
    first_index_ = index;
  } else {
    assert(index == first_index_ + Size() && "slice indices must be dense");
  }
  SliceEntry e;
  e.delta = std::move(delta);
  e.num_slots = num_slots;
  deltas_.push_back(std::move(e));
}

const QuerySet& ClTable::Mask(int64_t i, int64_t j) {
  if (j > i) std::swap(i, j);
  assert(j >= first_index_ && i <= last_index() && "slice evicted/unknown");
  return ComputeMask(i, j);
}

const QuerySet& ClTable::ComputeMask(int64_t i, int64_t j) {
  // Eq. 1, memoized per slice row. CL[j][j] is all-ones over the slot
  // universe that existed when slice j was created; CL[i][j] =
  // CL[i-1][j] & delta[i].
  {
    std::optional<QuerySet>& cell = Cell(i, j);
    if (cell.has_value()) return *cell;
  }
  // Find the longest memoized prefix CL[k-1][j], then extend to i.
  int64_t k = i;
  while (k > j) {
    SliceEntry& prev = Entry(k - 1);
    const size_t d = static_cast<size_t>(k - 1 - j);
    if (d < prev.row.size() && prev.row[d].has_value()) break;
    --k;
  }
  QuerySet acc;
  if (k == j) {
    acc = QuerySet::AllSet(Entry(j).num_slots);
    std::optional<QuerySet>& diag = Cell(j, j);
    if (!diag.has_value()) {
      diag = acc;
      ++memo_entries_;
    }
  } else {
    acc = *Entry(k - 1).row[static_cast<size_t>(k - 1 - j)];
  }
  for (int64_t m = k == j ? j + 1 : k; m <= i; ++m) {
    SliceEntry& em = Entry(m);
    EnsureDelta(em, m);
    acc &= em.delta;
    std::optional<QuerySet>& cell = Cell(m, j);
    if (!cell.has_value()) {
      cell = acc;
      ++memo_entries_;
    }
  }
  return *Entry(i).row[static_cast<size_t>(i - j)];
}

void ClTable::EvictBelow(int64_t min_index) {
  // Whole memo rows die with their slice — one deque pop, no global scan.
  while (!deltas_.empty() && first_index_ < min_index) {
    for (const auto& cell : deltas_.front().row) {
      if (cell.has_value()) --memo_entries_;
    }
    deltas_.pop_front();
    ++first_index_;
  }
  // Surviving rows may still hold tail entries whose j was evicted; trim
  // them so the memo never references dropped slices.
  for (int64_t i = first_index_; i <= last_index(); ++i) {
    auto& row = Entry(i).row;
    const size_t keep = static_cast<size_t>(i - first_index_) + 1;
    if (row.size() <= keep) continue;
    for (size_t d = keep; d < row.size(); ++d) {
      if (row[d].has_value()) --memo_entries_;
    }
    row.resize(keep);
  }
}

QuerySet ClTable::DeltaOf(const SliceEntry& e, int64_t index) const {
  if (!e.spilled) return e.delta;
  storage::SpillReader reader(e.run);
  reader.SkipBlocksBelow(index);
  int64_t key = 0;
  std::vector<uint8_t> payload;
  while (reader.Next(&key, &payload) && key <= index) {
    if (key != index) continue;
    spe::StateReader dec(std::move(payload));
    QuerySet delta = dec.ReadBitset();
    if (dec.Ok()) return delta;
    break;
  }
  // A wrong delta would apply a wrong changelog mask to every window that
  // spans this slice: fail the task instead.
  throw storage::SpillReadError("spilled changelog delta of slice " +
                                std::to_string(index) + " is unreadable");
}

void ClTable::EnsureDelta(SliceEntry& e, int64_t index) {
  if (!e.spilled) return;
  e.delta = DeltaOf(e, index);
  e.spilled = false;
  e.run.reset();
}

size_t ClTable::SpillBelow(int64_t max_index, storage::SpillSpace* space) {
  if (space == nullptr || deltas_.empty()) return 0;
  const int64_t hi = std::min(max_index, last_index());
  std::vector<int64_t> victims;
  for (int64_t i = first_index_; i <= hi; ++i) {
    if (!Entry(i).spilled) victims.push_back(i);
  }
  if (victims.empty()) return 0;
  storage::SpillWriter writer(space);
  for (int64_t i : victims) {
    spe::StateWriter enc;
    enc.WriteBitset(Entry(i).delta);
    if (!writer.Append(i, enc.buffer().data(), enc.buffer().size()).ok()) {
      return 0;
    }
  }
  auto finished = writer.Finish();
  if (!finished.ok()) return 0;
  const storage::SpilledRunPtr run = std::move(finished).value();
  size_t released = 0;
  for (int64_t i : victims) {
    SliceEntry& e = Entry(i);
    // Estimate: the delta words plus every memoized mask in this row.
    released += e.delta.capacity() / 8;
    for (auto& cell : e.row) {
      if (cell.has_value()) {
        released += cell->capacity() / 8;
        --memo_entries_;
      }
    }
    e.row.clear();
    e.row.shrink_to_fit();
    e.delta = QuerySet();
    e.spilled = true;
    e.run = run;
  }
  return released;
}

size_t ClTable::NumSpilledDeltas() const {
  size_t n = 0;
  for (const SliceEntry& e : deltas_) n += e.spilled ? 1 : 0;
  return n;
}

void ClTable::Serialize(spe::StateWriter* writer) const {
  writer->WriteI64(first_index_);
  writer->WriteU64(deltas_.size());
  for (size_t d = 0; d < deltas_.size(); ++d) {
    const SliceEntry& e = deltas_[d];
    writer->WriteBitset(DeltaOf(e, first_index_ + static_cast<int64_t>(d)));
    writer->WriteU64(e.num_slots);
  }
}

Status ClTable::Restore(spe::StateReader* reader) {
  deltas_.clear();
  memo_entries_ = 0;
  first_index_ = reader->ReadI64();
  const uint64_t n = reader->ReadU64();
  for (uint64_t i = 0; i < n && reader->Ok(); ++i) {
    SliceEntry e;
    e.delta = reader->ReadBitset();
    e.num_slots = reader->ReadU64();
    deltas_.push_back(std::move(e));
  }
  return reader->Ok() ? Status::OK()
                      : Status::Internal("bad ClTable snapshot");
}

}  // namespace astream::core
