#include "core/router.h"

#include <chrono>

namespace astream::core {

RouterOperator::RouterOperator(Config config)
    : config_(std::move(config)),
      metrics_on_(config_.metrics != nullptr && config_.metrics->enabled()),
      series_cache_(config_.metrics) {
  if (!config_.routes_raw) {
    config_.routes_raw = [](const ActiveQuery& q, int port) {
      (void)port;
      return q.desc.kind == QueryKind::kSelection;
    };
  }
  if (config_.clock == nullptr) config_.clock = WallClock::Default();
}

void RouterOperator::NoteEmit(QueryId id, obs::QuerySeries* series,
                              TimestampMs event_time) {
  obs::QuerySeries* s = series != nullptr ? series : series_cache_.For(id);
  if (s == nullptr) return;
  s->records_emitted.Add();
  s->event_latency_ms.Record(config_.clock->NowMs() - event_time);
  if (!s->first_result_seen.load(std::memory_order_relaxed) &&
      !s->first_result_seen.exchange(true, std::memory_order_relaxed) &&
      config_.trace != nullptr) {
    config_.trace->Record(obs::TraceEventKind::kFirstResult, id,
                          config_.clock->NowMs() - event_time);
  }
}

void RouterOperator::RebuildSlotSeries() {
  if (!metrics_on_) return;
  slot_series_.assign(table_.num_slots(), nullptr);
  table_.ForEach([&](const ActiveQuery& q) {
    slot_series_[q.slot] = series_cache_.For(q.id);
  });
}

void RouterOperator::ProcessRecord(int port, spe::Record record,
                                   spe::Collector* out) {
  std::chrono::steady_clock::time_point start;
  if (config_.measure_overhead) start = std::chrono::steady_clock::now();

  RouteTally tally;
  RouteOne(port, std::move(record), out, &tally);
  Publish(tally);

  if (config_.measure_overhead) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    fanout_nanos_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count(),
        std::memory_order_relaxed);
  }
}

void RouterOperator::ProcessBatch(int port, spe::RecordBatch& records,
                                  spe::Collector* out) {
  // One timing sample covers the whole fan-out: the per-tuple
  // steady_clock reads are themselves part of the overhead Fig. 18
  // wants amortized away.
  std::chrono::steady_clock::time_point start;
  if (config_.measure_overhead) start = std::chrono::steady_clock::now();

  RouteTally tally;
  for (spe::Record& record : records) {
    RouteOne(port, std::move(record), out, &tally);
  }
  Publish(tally);

  if (config_.measure_overhead) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    fanout_nanos_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count(),
        std::memory_order_relaxed);
  }
}

void RouterOperator::Publish(const RouteTally& tally) {
  records_routed_.Add(tally.routed);
  rows_shared_.Add(tally.shared);
  rows_copied_.Add(tally.copied);
}

void RouterOperator::RouteOne(int port, spe::Record record,
                              spe::Collector* out, RouteTally* tally) {
  if (record.channel >= 0) {
    // Pre-resolved windowed result: ship as-is, keeping the channel stamp.
    ++tally->routed;
    if (metrics_on_) NoteEmit(record.channel, nullptr, record.event_time);
    spe::StreamElement el;
    el.kind = spe::ElementKind::kRecord;
    el.record = std::move(record);
    el.record.epoch = epoch_;
    out->Emit(std::move(el));
  } else {
    // Raw tuple: ship to every subscribed query's channel. This is the one
    // place AStream "copies" data (Sec. 3.2.2) — with copy-on-write rows
    // the per-query fan-out shares the payload (a refcount bump); a real
    // materialization happens only for degenerate empty rows.
    record.tags.ForEachSetBit([&](size_t slot) {
      const ActiveQuery* q = table_.QueryAt(static_cast<int>(slot));
      if (q == nullptr || !config_.routes_raw(*q, port)) return;
      spe::Record copy;
      copy.event_time = record.event_time;
      copy.row = record.row;
      copy.tags = QuerySet::Single(slot);
      copy.channel = q->id;
      copy.epoch = epoch_;
      ++tally->routed;
      if (copy.row.SharesStorageWith(record.row)) {
        ++tally->shared;
      } else {
        ++tally->copied;
      }
      if (metrics_on_) {
        NoteEmit(q->id, slot < slot_series_.size() ? slot_series_[slot]
                                                   : nullptr,
                 record.event_time);
      }
      spe::StreamElement el;
      el.kind = spe::ElementKind::kRecord;
      el.record = std::move(copy);
      out->Emit(std::move(el));
    });
  }
}

void RouterOperator::OnMarker(const spe::ControlMarker& marker,
                              spe::Collector* out) {
  (void)out;
  if (marker.kind == spe::MarkerKind::kCheckpointBarrier) {
    // Outputs emitted from here on belong to this checkpoint's epoch. The
    // runtime delivers checkpoint barriers to the operator *before*
    // snapshotting, so the snapshot carries the advanced epoch and a
    // restored router resumes stamping exactly where the original did.
    epoch_ = marker.epoch;
    return;
  }
  const Changelog* log = Changelog::FromMarker(marker);
  if (log == nullptr) return;
  table_.ApplyOrThrow(*log);
  RebuildSlotSeries();
}

Status RouterOperator::SnapshotState(spe::StateWriter* writer) {
  table_.Serialize(writer);
  writer->WriteI64(records_routed_.Get());
  writer->WriteI64(epoch_);
  return Status::OK();
}

Status RouterOperator::RestoreState(spe::StateReader* reader) {
  ASTREAM_RETURN_IF_ERROR(table_.Restore(reader));
  RebuildSlotSeries();
  records_routed_.Set(reader->ReadI64());
  epoch_ = reader->ReadI64();
  return reader->Ok() ? Status::OK()
                      : Status::Internal("bad router snapshot");
}

}  // namespace astream::core
