#include "core/shared_aggregation.h"

#include <algorithm>
#include <limits>

namespace astream::core {

SharedAggregation::SharedAggregation(AggConfig config)
    : SharedWindowedOperator(config.shared), config_(std::move(config)) {
  if (!config_.port_filter) {
    config_.port_filter = [](const ActiveQuery& q, int port) {
      (void)q;
      (void)port;
      return true;
    };
  }
  port_masks_.resize(config_.num_ports);
  arrange_.BindSpill(spill_space());
  arrange_.BindCompactor(compactor());
  arrange_.SetAccessAware(access_aware_eviction());
  if (governor() != nullptr) governor()->Register(this);
}

SharedAggregation::~SharedAggregation() {
  if (governor() != nullptr) governor()->Unregister(this);
}

size_t SharedAggregation::SpillOnce() {
  // Composed-block memo goes first: it is derived state, rebuilt on demand
  // from the stores, so shedding it loses no information.
  const size_t memo_released = arrange_.ReleaseMemo();
  if (memo_released > 0) {
    RefreshArenaBytes();
    return memo_released;
  }
  int64_t victim_reads = 0;
  const int64_t victim = arrange_.PickVictim(&victim_reads);
  if (victim == AggArrangement::kNoVersion) return 0;
  if (victim != arrange_.ColdestResident()) {
    reload_saves_.Add(1);  // a hot slice kept resident
  }
  size_t released = arrange_.SpillAt(victim);
  released += tracker().cl_table().SpillBelow(victim, spill_space());
  RefreshArenaBytes();
  return released;
}

void SharedAggregation::OnActiveSetChanged() {
  slot_info_.assign(table().num_slots(), SlotInfo{});
  table().ForEach([&](const ActiveQuery& q) {
    if (!hosted_mask().Test(q.slot)) return;
    SlotInfo& info = slot_info_[q.slot];
    info.valid = true;
    info.session = !q.desc.window.IsTimeWindow();
    info.agg_column = q.desc.agg.column;
    info.agg_kind = q.desc.agg.kind;
  });
  for (int p = 0; p < config_.num_ports; ++p) {
    port_masks_[p] = table().SlotsWhere([&](const ActiveQuery& q) {
      return hosted_mask().Test(q.slot) && config_.port_filter(q, p);
    });
  }
  // Partition hosted time-window slots by agg column: with sharing on, a
  // tuple does one accumulator Add per distinct column; different kinds
  // over the same column share the group (Finalize picks per query).
  column_masks_.clear();
  time_mask_ = QuerySet();
  session_mask_ = QuerySet();
  for (size_t slot = 0; slot < slot_info_.size(); ++slot) {
    const SlotInfo& info = slot_info_[slot];
    if (!info.valid) continue;
    if (info.session) {
      session_mask_.Set(slot);
      continue;
    }
    time_mask_.Set(slot);
    auto it = std::find_if(
        column_masks_.begin(), column_masks_.end(),
        [&](const ColumnMask& cm) { return cm.column == info.agg_column; });
    if (it == column_masks_.end()) {
      column_masks_.push_back(ColumnMask{info.agg_column, QuerySet()});
      it = std::prev(column_masks_.end());
    }
    it->slots.Set(slot);
  }
}

void SharedAggregation::OnQueryCreated(const ActiveQuery& query) {
  if (query.desc.window.IsTimeWindow()) return;
  SessionQuery sq;
  sq.id = query.id;
  sq.slot = query.slot;
  sq.gap = query.desc.window.gap;
  sq.agg_kind = query.desc.agg.kind;
  sq.agg_column = query.desc.agg.column;
  session_queries_[query.id] = std::move(sq);
}

void SharedAggregation::OnQueryDeleted(const DrainingQuery& draining) {
  auto it = session_queries_.find(draining.query.id);
  if (it == session_queries_.end()) return;
  SessionQuery& sq = it->second;
  sq.deleted_at = draining.deleted_at;
  // Cancel sessions that cannot close by the deletion time.
  for (auto kit = sq.sessions.begin(); kit != sq.sessions.end();) {
    auto& sessions = kit->second;
    sessions.erase(
        std::remove_if(sessions.begin(), sessions.end(),
                       [&](const SessionState& s) {
                         return s.last + sq.gap > sq.deleted_at;
                       }),
        sessions.end());
    kit = sessions.empty() ? sq.sessions.erase(kit) : std::next(kit);
  }
  if (sq.sessions.empty()) session_queries_.erase(it);
}

void SharedAggregation::AddToSession(SessionQuery* sq, spe::Value key,
                                     TimestampMs t, spe::Value value) {
  auto& sessions = sq->sessions[key];
  SessionState merged;
  merged.start = t;
  merged.last = t;
  merged.acc.Add(value);
  std::vector<SessionState> kept;
  kept.reserve(sessions.size());
  for (SessionState& s : sessions) {
    const bool overlaps = t + sq->gap > s.start && s.last + sq->gap > t;
    if (overlaps) {
      merged.start = std::min(merged.start, s.start);
      merged.last = std::max(merged.last, s.last);
      merged.acc.Merge(s.acc);
    } else {
      kept.push_back(std::move(s));
    }
  }
  kept.push_back(std::move(merged));
  std::sort(kept.begin(), kept.end(),
            [](const SessionState& a, const SessionState& b) {
              return a.start < b.start;
            });
  sessions = std::move(kept);
}

void SharedAggregation::IngestRecord(const spe::Record& record,
                                     const QuerySet& tags, SliceCursor* cursor,
                                     AggStore** cached_store, int64_t* ops) {
  if (meter_costs()) {
    tags.ForEachSetBit([&](size_t slot) {
      if (obs::QuerySeries* s = SeriesForSlot(slot)) s->cost_rows.Add();
    });
  }
  // Session slots route to per-(query, key) session state.
  if (session_mask_.Any()) {
    (tags & session_mask_).ForEachSetBit([&](size_t slot) {
      const SlotInfo& info = slot_info_[slot];
      const ActiveQuery* q = table().QueryAt(static_cast<int>(slot));
      if (q == nullptr) return;
      auto it = session_queries_.find(q->id);
      if (it != session_queries_.end()) {
        AddToSession(&it->second, record.row.key(), record.event_time,
                     record.row.At(info.agg_column));
      }
    });
  }
  if (share_arrangements()) {
    // Group-shared path: one accumulator Add per distinct agg column,
    // tagged with every interested slot — per-tuple maintenance cost is
    // O(distinct columns), independent of how many queries (and window
    // specs) share the stream.
    for (const ColumnMask& cm : column_masks_) {
      QuerySet group_tags = tags & cm.slots;
      ++*ops;
      if (group_tags.None()) continue;
      if (cursor->Advance(tracker(), record.event_time) ||
          *cached_store == nullptr) {
        *cached_store = &arrange_.StoreAt(cursor->slice().index);
      }
      (*cached_store)
          ->Add(record.row.key(), std::move(group_tags),
                record.row.At(cm.column));
    }
  } else {
    // Reference path: per-slot singleton groups reproduce the old
    // per-query-store maintenance cost (one Add per interested slot).
    (tags & time_mask_).ForEachSetBit([&](size_t slot) {
      const SlotInfo& info = slot_info_[slot];
      if (cursor->Advance(tracker(), record.event_time) ||
          *cached_store == nullptr) {
        *cached_store = &arrange_.StoreAt(cursor->slice().index);
      }
      (*cached_store)
          ->Add(record.row.key(), QuerySet::Single(slot),
                record.row.At(info.agg_column));
    });
  }
}

void SharedAggregation::ProcessRecord(int port, spe::Record record,
                                      spe::Collector* out) {
  (void)out;
  NoteEventTime(record.event_time);
  if (record.event_time < current_watermark()) {
    records_late_.Add(1);
    if (metrics_on()) {
      (record.tags & port_masks_[port]).ForEachSetBit([&](size_t slot) {
        if (obs::QuerySeries* s = SeriesForSlot(slot)) s->late_drops.Add();
      });
    }
    return;
  }
  QuerySet tags = record.tags & port_masks_[port];
  if (tags.None()) {
    bitset_ops_.Add(1);
    return;
  }
  int64_t ops = 1;
  SliceCursor cursor;
  AggStore* store = nullptr;
  IngestRecord(record, tags, &cursor, &store, &ops);
  bitset_ops_.Add(ops);
  RefreshArenaBytes();
  EnforceBudget();
}

void SharedAggregation::RefreshArenaBytes() {
  int64_t bytes = 0;
  size_t resident = 0;
  int64_t coldest_index = AggArrangement::kNoVersion;
  arrange_.AddBytes(&bytes, &resident, &coldest_index);
  state_arena_bytes_.Set(bytes);
  if (governor() == nullptr) return;
  int64_t coldest_end = std::numeric_limits<int64_t>::max();
  if (coldest_index != AggArrangement::kNoVersion) {
    auto slice = tracker().SliceByIndex(coldest_index);
    coldest_end = slice.has_value() ? slice->end : coldest_index;
  }
  // Read heat of the slice SpillOnce would pick (see SharedJoin): lets
  // the governor spare this operator when a peer holds a colder slice.
  int64_t victim_reads = 0;
  if (access_aware_eviction() && coldest_index != AggArrangement::kNoVersion) {
    arrange_.PickVictim(&victim_reads);
  }
  governor()->Update(this, resident, coldest_end, victim_reads);
}

void SharedAggregation::EnforceBudget() {
  if (governor() != nullptr) governor()->Enforce(this);
}

void SharedAggregation::ProcessBatch(int port, spe::RecordBatch& records,
                                     spe::Collector* out) {
  (void)out;
  const QuerySet& mask = port_masks_[port];
  // The slice/store cursor persists across the batch: consecutive tuples
  // overwhelmingly share a slice (sources are roughly time-ordered), so
  // the lookup runs once per run of same-slice tuples (see SliceCursor).
  SliceCursor cursor;
  AggStore* cached_store = nullptr;
  int64_t ops = 0;
  int64_t late = 0;
  for (spe::Record& record : records) {
    NoteEventTime(record.event_time);
    if (record.event_time < current_watermark()) {
      ++late;
      if (metrics_on()) {
        (record.tags & mask).ForEachSetBit([&](size_t slot) {
          if (obs::QuerySeries* s = SeriesForSlot(slot)) {
            s->late_drops.Add();
          }
        });
      }
      continue;
    }
    scratch_tags_ = record.tags;
    scratch_tags_ &= mask;
    ++ops;
    if (scratch_tags_.None()) continue;
    IngestRecord(record, scratch_tags_, &cursor, &cached_store, &ops);
  }
  bitset_ops_.Add(ops);
  records_late_.Add(late);
  RefreshArenaBytes();
  EnforceBudget();
}

void SharedAggregation::TriggerWindows(
    TimestampMs start, TimestampMs end,
    const std::vector<TriggeredQuery>& queries, spe::Collector* out) {
  const std::vector<SliceInfo> slices = tracker().SlicesIn(start, end);
  if (slices.empty()) return;
  for (const SliceInfo& s : slices) arrange_.NoteRead(s.index);
  const int64_t last_index = slices.back().index;
  const TimestampMs result_time = end - 1;

  // Compose the span once for every query in this trigger; with sharing
  // on, aligned sub-blocks land in the arrangement memo and are reused by
  // overlapping windows of this and other queries.
  const std::shared_ptr<const AggArrangement::Composed> composed =
      arrange_.Compose(slices, &tracker().cl_table(), share_arrangements());

  // One column per distinct triggered time-window slot.
  trigger_slots_.ClearAll();
  size_t columns = 0;
  for (const TriggeredQuery& tq : queries) {
    const ActiveQuery& q = *tq.query;
    if (!q.desc.window.IsTimeWindow()) continue;
    const size_t slot = static_cast<size_t>(q.slot);
    if (slot >= slot_column_.size()) slot_column_.resize(slot + 1, -1);
    if (slot_column_[slot] >= 0) continue;
    slot_column_[slot] = static_cast<int>(columns++);
    trigger_slots_.Set(slot);
  }
  if (columns == 0) return;

  // One walk over the span for every triggered query: each group's tags,
  // ANDed with the triggered slots word by word, name the cells of its key
  // it merges into. The composed view's group tags are already masked to
  // the last slice via the CL table, so slot membership alone decides
  // contribution.
  const size_t num_keys = composed->NumKeys();
  cells_.assign(num_keys * columns, Cell{});
  const size_t words = trigger_slots_.NumWords();
  for (size_t k = 0; k < num_keys; ++k) {
    Cell* row = cells_.data() + k * columns;
    for (const AggArrangement::Group& g : composed->GroupsOf(k)) {
      const size_t n = std::min(words, g.tags.NumWords());
      for (size_t w = 0; w < n; ++w) {
        uint64_t hit = g.tags.Word(w) & trigger_slots_.Word(w);
        while (hit != 0) {
          const size_t slot =
              w * 64 + static_cast<size_t>(__builtin_ctzll(hit));
          hit &= hit - 1;
          Cell& cell = row[slot_column_[slot]];
          cell.acc.Merge(g.acc);
          cell.hit = true;
        }
      }
    }
  }

  int64_t ops = 0;
  for (const TriggeredQuery& tq : queries) {
    const ActiveQuery& q = *tq.query;
    if (!q.desc.window.IsTimeWindow()) continue;
    obs::QuerySeries* series = metrics_on() ? SeriesForQuery(q.id) : nullptr;
    // Per-slice accounting kept from the per-query-store path: slice
    // partials are computed once at insert time and shared by every
    // window covering the slice — each covered, still-valid slice is a
    // reuse.
    for (const SliceInfo& s : slices) {
      if (arrange_.AtVersion(s.index) == nullptr) continue;
      ++ops;
      if (!tracker().cl_table().SlotUnchanged(last_index, s.index, q.slot)) {
        continue;
      }
      if (series != nullptr) series->slices_reused.Add();
    }
    const Cell* cell = cells_.data() + slot_column_[q.slot];
    for (size_t k = 0; k < num_keys; ++k, cell += columns) {
      if (!cell->hit) continue;
      spe::StreamElement el;
      el.kind = spe::ElementKind::kRecord;
      el.record.event_time = result_time;
      el.record.row =
          spe::Row{composed->keys[k], cell->acc.Finalize(q.desc.agg.kind)};
      el.record.tags = QuerySet::Single(q.slot);
      el.record.channel = q.id;
      out->Emit(std::move(el));
    }
  }
  trigger_slots_.ForEachSetBit([&](size_t slot) { slot_column_[slot] = -1; });
  bitset_ops_.Add(ops);
}

void SharedAggregation::OnWatermarkTail(TimestampMs watermark,
                                        spe::Collector* out) {
  // Close expired sessions (and fully drain deleted session queries).
  for (auto it = session_queries_.begin(); it != session_queries_.end();) {
    SessionQuery& sq = it->second;
    for (auto kit = sq.sessions.begin(); kit != sq.sessions.end();) {
      auto& sessions = kit->second;
      auto sit = sessions.begin();
      while (sit != sessions.end() && sit->last + sq.gap <= watermark) {
        spe::StreamElement el;
        el.kind = spe::ElementKind::kRecord;
        el.record.event_time = sit->last + sq.gap - 1;
        el.record.row =
            spe::Row{kit->first, sit->acc.Finalize(sq.agg_kind)};
        el.record.tags = QuerySet::Single(sq.slot);
        el.record.channel = sq.id;
        out->Emit(std::move(el));
        sit = sessions.erase(sit);
      }
      kit = sessions.empty() ? sq.sessions.erase(kit) : std::next(kit);
    }
    const bool deleted = sq.deleted_at != kMaxTimestamp;
    if (deleted && sq.sessions.empty()) {
      it = session_queries_.erase(it);
    } else {
      ++it;
    }
  }
}

void SharedAggregation::OnSlicesEvicted(const std::vector<int64_t>& indices) {
  if (indices.empty()) return;
  arrange_.EvictThrough(indices.back());
  RefreshArenaBytes();
}

Status SharedAggregation::SnapshotState(spe::StateWriter* writer) {
  SerializeBase(writer);
  arrange_.Serialize(writer);
  writer->WriteU64(session_queries_.size());
  for (const auto& [id, sq] : session_queries_) {
    writer->WriteI64(sq.id);
    writer->WriteI64(sq.slot);
    writer->WriteI64(sq.gap);
    writer->WriteI64(static_cast<int64_t>(sq.agg_kind));
    writer->WriteI64(sq.agg_column);
    writer->WriteI64(sq.deleted_at);
    writer->WriteU64(sq.sessions.size());
    for (const auto& [key, sessions] : sq.sessions) {
      writer->WriteI64(key);
      writer->WriteU64(sessions.size());
      for (const SessionState& s : sessions) {
        writer->WriteI64(s.start);
        writer->WriteI64(s.last);
        writer->WriteI64(s.acc.sum);
        writer->WriteI64(s.acc.count);
        writer->WriteI64(s.acc.min);
        writer->WriteI64(s.acc.max);
      }
    }
  }
  return Status::OK();
}

Status SharedAggregation::RestoreState(spe::StateReader* reader) {
  ASTREAM_RETURN_IF_ERROR(RestoreBase(reader));
  ASTREAM_RETURN_IF_ERROR(arrange_.Restore(reader));
  session_queries_.clear();
  const uint64_t num_sq = reader->ReadU64();
  for (uint64_t i = 0; i < num_sq && reader->Ok(); ++i) {
    SessionQuery sq;
    sq.id = reader->ReadI64();
    sq.slot = static_cast<int>(reader->ReadI64());
    sq.gap = reader->ReadI64();
    sq.agg_kind = static_cast<spe::AggKind>(reader->ReadI64());
    sq.agg_column = static_cast<int>(reader->ReadI64());
    sq.deleted_at = reader->ReadI64();
    const uint64_t num_keys = reader->ReadU64();
    for (uint64_t k = 0; k < num_keys && reader->Ok(); ++k) {
      const spe::Value key = reader->ReadI64();
      auto& sessions = sq.sessions[key];
      const uint64_t n = reader->ReadU64();
      for (uint64_t s = 0; s < n && reader->Ok(); ++s) {
        SessionState st;
        st.start = reader->ReadI64();
        st.last = reader->ReadI64();
        st.acc.sum = reader->ReadI64();
        st.acc.count = reader->ReadI64();
        st.acc.min = reader->ReadI64();
        st.acc.max = reader->ReadI64();
        sessions.push_back(st);
      }
    }
    session_queries_[sq.id] = std::move(sq);
  }
  // Rebuild derived caches.
  OnActiveSetChanged();
  if (!reader->Ok()) return Status::Internal("bad shared-aggregation snapshot");
  // Restored state is fully resident; shed back down to budget before
  // replay resumes.
  RefreshArenaBytes();
  EnforceBudget();
  return Status::OK();
}

}  // namespace astream::core
