#include "core/shared_operator.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "core/window_math.h"

namespace astream::core {

void SharedWindowedOperator::OnMarker(const spe::ControlMarker& marker,
                                      spe::Collector* out) {
  (void)out;
  switch (marker.kind) {
    case spe::MarkerKind::kChangelog: {
      const Changelog* log = Changelog::FromMarker(marker);
      assert(log != nullptr);
      ApplyChangelog(*log);
      break;
    }
    case spe::MarkerKind::kModeSwitch: {
      const auto* payload =
          static_cast<const ModeSwitchPayload*>(marker.payload.get());
      if (payload != nullptr && payload->mode != current_mode_) {
        current_mode_ = payload->mode;
        OnModeSwitch(current_mode_);
      }
      break;
    }
    case spe::MarkerKind::kCheckpointBarrier:
      break;  // snapshots are handled by the runtime
  }
}

void SharedWindowedOperator::ApplyChangelog(const Changelog& log) {
  // 1. Cut the slice boundary first: materializing the gap up to the cut
  //    must use the pre-changelog window edges.
  const bool creates_hosted =
      std::any_of(log.created.begin(), log.created.end(),
                  [&](const QueryActivation& c) {
                    ActiveQuery probe;
                    probe.id = c.id;
                    probe.slot = c.slot;
                    probe.created_at = c.created_at;
                    probe.desc = c.desc;
                    return config_.hosts(probe);
                  });
  if (tracker_.Initialized() || creates_hosted) {
    tracker_.CutAt(log.time, log.changelog_set);
  }

  // 2. Capture hosted deletions before the table drops them.
  std::vector<DrainingQuery> newly_draining;
  for (const QueryDeactivation& d : log.deleted) {
    const ActiveQuery* q = table_.QueryAt(d.slot);
    if (q != nullptr && q->id == d.id && config_.hosts(*q)) {
      DrainingQuery dq;
      dq.query = *q;
      dq.deleted_at = log.time;
      newly_draining.push_back(std::move(dq));
    }
  }

  table_.ApplyOrThrow(log);
  tracker_.SetNumSlots(table_.num_slots());

  for (DrainingQuery& dq : newly_draining) {
    tracker_.RemoveQuery(dq.query.slot);
    if (dq.query.desc.window.IsTimeWindow()) {
      // Kept until the last completed window (end <= deleted_at) emitted.
      const QueryId id = dq.query.id;
      draining_[id] = std::move(dq);
      OnQueryDeleted(draining_[id]);
    } else {
      // Session windows drain inside the subclass (no trigger-queue
      // entries exist for them).
      OnQueryDeleted(dq);
    }
  }

  // 3. Register new hosted queries: window edges + first trigger.
  for (const QueryActivation& c : log.created) {
    const ActiveQuery* q = table_.QueryAt(c.slot);
    if (q == nullptr || q->id != c.id || !config_.hosts(*q)) continue;
    if (q->desc.window.IsTimeWindow()) {
      // Normally windows anchor at the creation marker; a re-admitted
      // query (DESIGN.md §14) instead lands on the forward-aligned lattice
      // of its original creation so the hand-back tiles without overlap.
      TimestampMs anchor = q->created_at;
      if (q->desc.align_origin != kMinTimestamp && q->desc.window.slide > 0) {
        anchor = AlignForward(q->created_at, q->desc.align_origin,
                              q->desc.window.slide);
      }
      tracker_.AddQuery(q->slot, anchor, q->desc.window);
      TriggerEntry entry;
      entry.window_start = anchor;
      entry.window_end = anchor + q->desc.window.length;
      entry.slot = q->slot;
      entry.id = q->id;
      triggers_.Schedule(entry);
    }
    OnQueryCreated(*q);
  }

  hosted_mask_ = table_.SlotsWhere(config_.hosts);
  if (config_.adaptive_mode) MaybeSwitchMode();
  RebuildSlotSeries();
  PublishHostedSpans();
  OnActiveSetChanged();
}

void SharedWindowedOperator::PublishHostedSpans() {
  std::vector<std::pair<QueryId, TimestampMs>> spans;
  table_.ForEach([&](const ActiveQuery& q) {
    if (config_.hosts(q) && q.desc.window.IsTimeWindow()) {
      spans.emplace_back(q.id, q.desc.window.length);
    }
  });
  std::lock_guard<std::mutex> lock(spans_mutex_);
  hosted_spans_ = std::move(spans);
}

void SharedWindowedOperator::RebuildSlotSeries() {
  if (!metrics_on_) return;
  slot_series_.assign(table_.num_slots(), nullptr);
  table_.ForEach([&](const ActiveQuery& q) {
    if (hosted_mask_.Test(q.slot)) {
      slot_series_[q.slot] = series_cache_.For(q.id);
    }
  });
}

void SharedWindowedOperator::MaybeSwitchMode() {
  // Sec. 3.1.4: beyond ~10 concurrent queries most query-set groups hold a
  // single tuple, so the flat list wins; below that, grouping pays.
  const size_t active_hosted = hosted_mask_.Count();
  const StoreMode desired =
      active_hosted > 10 ? StoreMode::kList : StoreMode::kGrouped;
  if (desired != current_mode_) {
    current_mode_ = desired;
    OnModeSwitch(desired);
  }
}

void SharedWindowedOperator::OnWatermark(TimestampMs watermark,
                                         spe::Collector* out) {
  current_watermark_ = watermark;

  // Collect all due windows, resolving each against active / draining
  // queries and rescheduling the query's next window.
  struct DueWindow {
    TimestampMs start = 0;
    TimestampMs end = 0;
    TriggeredQuery tq;
  };
  std::vector<DueWindow> due;
  std::vector<QueryId> drained_done;
  while (auto entry = triggers_.PopDue(watermark)) {
    const ActiveQuery* active = table_.QueryAt(entry->slot);
    const ActiveQuery* resolved = nullptr;
    bool drain_more = false;
    TimestampMs drain_limit = 0;
    if (active != nullptr && active->id == entry->id) {
      resolved = active;
    } else {
      auto it = draining_.find(entry->id);
      if (it != draining_.end()) {
        if (entry->window_end <= it->second.deleted_at) {
          resolved = &it->second.query;
          drain_more = true;
          drain_limit = it->second.deleted_at;
        } else {
          draining_.erase(it);  // all completed windows emitted
        }
      }
    }
    if (resolved == nullptr) continue;

    // Suppress provably empty windows at end of stream so the reschedule
    // chain terminates.
    const bool beyond_data = watermark == kMaxTimestamp &&
                             entry->window_start > max_seen_event_time_;
    if (!beyond_data) {
      DueWindow w;
      w.start = entry->window_start;
      w.end = entry->window_end;
      w.tq.query = resolved;
      w.tq.draining = drain_more;
      due.push_back(w);
    }

    // Reschedule the next window instance. Draining entries are erased
    // only after the trigger pass below (`due` holds pointers into them).
    const TimestampMs slide = resolved->desc.window.slide;
    TriggerEntry next = *entry;
    next.window_start += slide;
    next.window_end += slide;
    const bool terminate =
        beyond_data || (drain_more && next.window_end > drain_limit);
    if (terminate) {
      if (drain_more) drained_done.push_back(entry->id);
    } else {
      triggers_.Schedule(next);
    }
  }

  // Deterministic evaluation order; share one evaluation across queries
  // with the identical window interval.
  std::sort(due.begin(), due.end(), [](const DueWindow& a,
                                       const DueWindow& b) {
    if (a.end != b.end) return a.end < b.end;
    if (a.start != b.start) return a.start < b.start;
    return a.tq.query->slot < b.tq.query->slot;
  });
  size_t i = 0;
  while (i < due.size()) {
    size_t j = i;
    std::vector<TriggeredQuery> group;
    while (j < due.size() && due[j].start == due[i].start &&
           due[j].end == due[i].end) {
      group.push_back(due[j].tq);
      ++j;
    }
    if (meter_on_) {
      // Bill the trigger's wall time evenly across the queries sharing
      // this window evaluation (the shared computation is the point: each
      // query pays 1/k of it).
      const auto t0 = std::chrono::steady_clock::now();
      TriggerWindows(due[i].start, due[i].end, group, out);
      const int64_t nanos =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count();
      const int64_t share =
          std::max<int64_t>(1, nanos / static_cast<int64_t>(group.size()));
      for (const TriggeredQuery& tq : group) {
        if (obs::QuerySeries* s = SeriesForQuery(tq.query->id)) {
          s->cost_cpu_nanos.Add(share);
        }
      }
    } else {
      TriggerWindows(due[i].start, due[i].end, group, out);
    }
    i = j;
  }
  for (QueryId id : drained_done) draining_.erase(id);

  OnWatermarkTail(watermark, out);
  EvictExpired(watermark);
}

void SharedWindowedOperator::AppendStateShares(
    std::map<QueryId, int64_t>* out) const {
  const int64_t resident = ResidentStateBytes();
  if (resident <= 0) return;
  // Window span is the retention driver: a query's share of the arena is
  // proportional to how much event time it forces the operator to keep.
  std::lock_guard<std::mutex> lock(spans_mutex_);
  TimestampMs total = 0;
  for (const auto& [id, span] : hosted_spans_) total += span;
  if (total <= 0) return;
  for (const auto& [id, span] : hosted_spans_) {
    (*out)[id] += resident * span / total;
  }
}

TimestampMs SharedWindowedOperator::MaxWindowSpan() const {
  TimestampMs span = 0;
  table_.ForEach([&](const ActiveQuery& q) {
    if (config_.hosts(q) && q.desc.window.IsTimeWindow()) {
      span = std::max(span, q.desc.window.length);
    }
  });
  for (const auto& [id, dq] : draining_) {
    if (dq.query.desc.window.IsTimeWindow()) {
      span = std::max(span, dq.query.desc.window.length);
    }
  }
  return span;
}

void SharedWindowedOperator::EvictExpired(TimestampMs watermark) {
  TimestampMs horizon;
  if (watermark == kMaxTimestamp) {
    horizon = kMaxTimestamp;
  } else {
    const TimestampMs span = MaxWindowSpan();
    horizon = watermark - span;
    if (horizon > watermark) horizon = kMinTimestamp;  // underflow guard
  }
  std::vector<int64_t> evicted = tracker_.EvictBefore(horizon);
  if (!evicted.empty()) OnSlicesEvicted(evicted);
}

void SharedWindowedOperator::SerializeBase(spe::StateWriter* writer) const {
  table_.Serialize(writer);
  tracker_.Serialize(writer);
  triggers_.Serialize(writer);
  writer->WriteU64(draining_.size());
  for (const auto& [id, dq] : draining_) {
    writer->WriteI64(dq.query.id);
    writer->WriteI64(dq.query.slot);
    writer->WriteI64(dq.query.created_at);
    dq.query.desc.Serialize(writer);
    writer->WriteI64(dq.deleted_at);
  }
  writer->WriteBitset(hosted_mask_);
  writer->WriteI64(static_cast<int64_t>(current_mode_));
  writer->WriteI64(max_seen_event_time_);
  writer->WriteI64(current_watermark_);
}

Status SharedWindowedOperator::RestoreBase(spe::StateReader* reader) {
  ASTREAM_RETURN_IF_ERROR(table_.Restore(reader));
  ASTREAM_RETURN_IF_ERROR(tracker_.Restore(reader));
  ASTREAM_RETURN_IF_ERROR(triggers_.Restore(reader));
  draining_.clear();
  const uint64_t n = reader->ReadU64();
  for (uint64_t i = 0; i < n && reader->Ok(); ++i) {
    DrainingQuery dq;
    dq.query.id = reader->ReadI64();
    dq.query.slot = static_cast<int>(reader->ReadI64());
    dq.query.created_at = reader->ReadI64();
    dq.query.desc = QueryDescriptor::Deserialize(reader);
    dq.deleted_at = reader->ReadI64();
    draining_[dq.query.id] = std::move(dq);
  }
  hosted_mask_ = reader->ReadBitset();
  current_mode_ = static_cast<StoreMode>(reader->ReadI64());
  RebuildSlotSeries();
  PublishHostedSpans();
  max_seen_event_time_ = reader->ReadI64();
  current_watermark_ = kMinTimestamp;  // rebuilt by replayed watermarks
  reader->ReadI64();                   // stored watermark (diagnostics only)
  return reader->Ok() ? Status::OK()
                      : Status::Internal("bad shared-operator snapshot");
}

}  // namespace astream::core
