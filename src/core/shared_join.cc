#include "core/shared_join.h"

#include <algorithm>
#include <limits>

namespace astream::core {

SharedJoin::SharedJoin(SharedOperatorConfig config)
    : SharedWindowedOperator(std::move(config)) {
  for (TupleArrangement& side : sides_) {
    side.BindSpill(spill_space());
    side.BindCompactor(compactor());
  }
  if (governor() != nullptr) governor()->Register(this);
}

SharedJoin::~SharedJoin() {
  if (governor() != nullptr) governor()->Unregister(this);
}

void SharedJoin::RefreshArenaBytes() {
  int64_t bytes = 0;
  size_t resident = 0;
  int64_t coldest_index = TupleArrangement::kNoVersion;
  for (const TupleArrangement& side : sides_) {
    side.AddBytes(&bytes, &resident, &coldest_index);
  }
  state_arena_bytes_.Set(bytes);
  if (governor() == nullptr) return;
  int64_t coldest_end = std::numeric_limits<int64_t>::max();
  if (coldest_index != TupleArrangement::kNoVersion) {
    auto slice = tracker().SliceByIndex(coldest_index);
    coldest_end = slice.has_value() ? slice->end : coldest_index;
  }
  governor()->Update(this, resident, coldest_end);
}

void SharedJoin::EnforceBudget() {
  if (governor() != nullptr) governor()->Enforce(this);
}

size_t SharedJoin::SpillOnce() {
  // Victim = the oldest resident slice of either side. The pair memo
  // joins each slice pair once, so a slice is read again only for pairs
  // with slices that close after it — the oldest has the fewest left, and
  // past trigger reads say nothing about future ones. Both sides spill at
  // that index (their windows expire together), and the CL deltas at or
  // below it go with them. The memo stays: it holds computed results that
  // every later window over the pair reuses.
  const int64_t victim = std::min(sides_[0].ColdestResident(),
                                  sides_[1].ColdestResident());
  if (victim == TupleArrangement::kNoVersion) return 0;
  size_t released = sides_[0].SpillAt(victim) + sides_[1].SpillAt(victim);
  released += tracker().cl_table().SpillBelow(victim, spill_space());
  RefreshArenaBytes();
  return released;
}

void SharedJoin::ProcessRecord(int port, spe::Record record,
                               spe::Collector* out) {
  (void)out;
  NoteEventTime(record.event_time);
  if (record.event_time < current_watermark()) {
    records_late_.Add(1);  // cannot be assigned consistently; dropped
    if (metrics_on()) {
      (record.tags & hosted_mask()).ForEachSetBit([&](size_t slot) {
        if (obs::QuerySeries* s = SeriesForSlot(slot)) s->late_drops.Add();
      });
    }
    return;
  }
  QuerySet tags = record.tags & hosted_mask();
  bitset_ops_.Add(1);
  if (tags.None()) return;
  if (meter_costs()) {
    tags.ForEachSetBit([&](size_t slot) {
      if (obs::QuerySeries* s = SeriesForSlot(slot)) s->cost_rows.Add();
    });
  }
  const SliceInfo slice = tracker().SliceFor(record.event_time);
  sides_[port].StoreAt(slice.index, current_mode()).Insert(record.row, tags);
  RefreshArenaBytes();
  EnforceBudget();
}

void SharedJoin::ProcessBatch(int port, spe::RecordBatch& records,
                              spe::Collector* out) {
  (void)out;
  // One batch arrives from one (port, sender), so a single write cursor
  // suffices; SliceCursor revalidates by [start, end) containment (see
  // window_math.h for the pattern's safety argument).
  SliceCursor cursor;
  TupleStore* cached_store = nullptr;
  int64_t ops = 0;
  int64_t late = 0;
  for (spe::Record& record : records) {
    NoteEventTime(record.event_time);
    if (record.event_time < current_watermark()) {
      ++late;  // cannot be assigned consistently; dropped
      if (metrics_on()) {
        (record.tags & hosted_mask()).ForEachSetBit([&](size_t slot) {
          if (obs::QuerySeries* s = SeriesForSlot(slot)) {
            s->late_drops.Add();
          }
        });
      }
      continue;
    }
    scratch_tags_ = record.tags;
    scratch_tags_ &= hosted_mask();
    ++ops;
    if (scratch_tags_.None()) continue;
    if (meter_costs()) {
      scratch_tags_.ForEachSetBit([&](size_t slot) {
        if (obs::QuerySeries* s = SeriesForSlot(slot)) s->cost_rows.Add();
      });
    }
    if (cursor.Advance(tracker(), record.event_time) ||
        cached_store == nullptr) {
      cached_store =
          &sides_[port].StoreAt(cursor.slice().index, current_mode());
    }
    cached_store->Insert(record.row, scratch_tags_);
  }
  bitset_ops_.Add(ops);
  records_late_.Add(late);
  RefreshArenaBytes();
  EnforceBudget();
}

const std::vector<JoinedTuple>& SharedJoin::MemoFor(int64_t a, int64_t b,
                                                    bool* computed,
                                                    int64_t* ops) {
  if (const std::vector<JoinedTuple>* hit = memo_.Find(a, b)) {
    *computed = false;
    return *hit;
  }
  *computed = true;
  std::vector<JoinedTuple>& results = memo_.Emplace(a, b);
  const TupleStore* sa = sides_[0].AtVersion(a);
  const TupleStore* sb = sides_[1].AtVersion(b);
  if (sa != nullptr && sb != nullptr) {
    const QuerySet& mask = tracker().cl_table().Mask(a, b);
    *ops += TupleStore::Join(
        *sa, *sb, mask,
        [&](const spe::Row& left, const spe::Row& right, QuerySet tags) {
          JoinedTuple t;
          t.row = spe::Row::Concat(left, right);
          t.tags = std::move(tags);
          results.push_back(std::move(t));
        });
  }
  return results;
}

void SharedJoin::TriggerWindows(TimestampMs start, TimestampMs end,
                                const std::vector<TriggeredQuery>& queries,
                                spe::Collector* out) {
  QuerySet active_bits;
  std::vector<std::pair<int, QueryId>> draining;  // (slot, id)
  for (const TriggeredQuery& tq : queries) {
    if (tq.draining) {
      draining.emplace_back(tq.query->slot, tq.query->id);
    } else {
      active_bits.Set(tq.query->slot);
    }
  }

  const std::vector<SliceInfo> slices = tracker().SlicesIn(start, end);
  const TimestampMs result_time = end - 1;
  int64_t ops = 0;
  int64_t computed_pairs = 0;
  for (const SliceInfo& a : slices) {
    for (const SliceInfo& b : slices) {
      bool computed = false;
      const std::vector<JoinedTuple>& tuples =
          MemoFor(a.index, b.index, &computed, &ops);
      if (computed) ++computed_pairs;
      if (metrics_on()) {
        // The first toucher pays for the pair's computation; every other
        // query (in this trigger and later ones) reuses the memo.
        bool charge_compute = computed;
        for (const TriggeredQuery& tq : queries) {
          obs::QuerySeries* s = SeriesForQuery(tq.query->id);
          if (s == nullptr) continue;
          (charge_compute ? s->slices_computed : s->slices_reused).Add();
          charge_compute = false;
        }
      }
      for (const JoinedTuple& t : tuples) {
        QuerySet shared_tags = t.tags & active_bits;
        ++ops;
        if (shared_tags.Any()) {
          out->EmitRecord(result_time, t.row, std::move(shared_tags));
        }
        for (const auto& [slot, id] : draining) {
          if (t.tags.Test(slot)) {
            spe::StreamElement el;
            el.kind = spe::ElementKind::kRecord;
            el.record.event_time = result_time;
            el.record.row = t.row;
            el.record.tags = QuerySet::Single(slot);
            el.record.channel = id;
            out->Emit(std::move(el));
          }
        }
      }
    }
  }
  bitset_ops_.Add(ops);
  pairs_computed_.Add(computed_pairs);
  pairs_reused_.Add(static_cast<int64_t>(slices.size() * slices.size()) -
                    computed_pairs);
}

void SharedJoin::OnSlicesEvicted(const std::vector<int64_t>& indices) {
  if (indices.empty()) return;
  const int64_t max_evicted = indices.back();
  sides_[0].EvictThrough(max_evicted);
  sides_[1].EvictThrough(max_evicted);
  memo_.EvictThrough(max_evicted);
  RefreshArenaBytes();
}

void SharedJoin::OnModeSwitch(StoreMode mode) {
  // Sec. 3.2.3: convert the physical layout of all live slices.
  sides_[0].ConvertAll(mode);
  sides_[1].ConvertAll(mode);
}

Status SharedJoin::SnapshotState(spe::StateWriter* writer) {
  SerializeBase(writer);
  sides_[0].Serialize(writer);
  sides_[1].Serialize(writer);
  // The memo is a cache: recomputed on demand after restore.
  writer->WriteI64(pairs_computed_.Get());
  writer->WriteI64(records_late_.Get());
  return Status::OK();
}

Status SharedJoin::RestoreState(spe::StateReader* reader) {
  ASTREAM_RETURN_IF_ERROR(RestoreBase(reader));
  memo_.Clear();
  ASTREAM_RETURN_IF_ERROR(sides_[0].Restore(reader));
  ASTREAM_RETURN_IF_ERROR(sides_[1].Restore(reader));
  pairs_computed_.Set(reader->ReadI64());
  records_late_.Set(reader->ReadI64());
  if (!reader->Ok()) return Status::Internal("bad shared-join snapshot");
  // Restored state is fully resident; shed back down to budget before
  // replay resumes.
  RefreshArenaBytes();
  EnforceBudget();
  return Status::OK();
}

}  // namespace astream::core
