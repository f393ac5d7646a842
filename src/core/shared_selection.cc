#include "core/shared_selection.h"

#include <chrono>
#include <map>

namespace astream::core {

SharedSelection::SharedSelection(Config config)
    : config_(std::move(config)) {}

Status SharedSelection::Open(const spe::OperatorContext& ctx) {
  ASTREAM_RETURN_IF_ERROR(spe::Operator::Open(ctx));
  if (config_.metrics != nullptr && config_.metrics->enabled()) {
    metrics_on_ = true;
    meter_on_ = config_.meter_costs;
    // Stage `shared-selection-<x>` counts into `selection.<x>.*`.
    const std::string prefix =
        "selection." +
        ctx.stage_name.substr(ctx.stage_name.rfind('-') + 1) + ".";
    m_records_in_ = config_.metrics->GetCounter(prefix + "records_in");
    m_records_out_ = config_.metrics->GetCounter(prefix + "records_out");
    m_records_dropped_ =
        config_.metrics->GetCounter(prefix + "records_dropped");
  }
  return Status::OK();
}

void SharedSelection::RebuildIndex() {
  hosted_mask_ =
      table_.SlotsWhere([this](const ActiveQuery& q) { return Hosts(q); });
  if (meter_on_) {
    slot_series_.assign(table_.num_slots(), nullptr);
    table_.ForEach([&](const ActiveQuery& q) {
      if (Hosts(q)) {
        slot_series_[q.slot] = config_.metrics->SeriesFor(q.id);
      }
    });
  }
  index_.clear();
  if (!config_.use_predicate_index) return;
  std::map<Predicate, QuerySet> distinct;
  table_.ForEach([&](const ActiveQuery& q) {
    if (!Hosts(q)) return;
    for (const Predicate& p : q.desc.SelectOn(config_.stream)) {
      distinct[p].Set(q.slot);
    }
  });
  index_.reserve(distinct.size());
  for (auto& [predicate, queries] : distinct) {
    index_.push_back(IndexedPredicate{predicate, std::move(queries)});
  }
}

QuerySet SharedSelection::ComputeTags(const spe::Row& row) const {
  QuerySet tags;
  ComputeTagsInto(row, &tags);
  return tags;
}

void SharedSelection::ComputeTagsInto(const spe::Row& row,
                                      QuerySet* tags) const {
  if (config_.use_predicate_index) {
    // Start from every hosted query; each distinct predicate is evaluated
    // exactly once and, when it fails, removes the bits of all queries
    // whose conjunction contains it.
    *tags = hosted_mask_;
    for (const IndexedPredicate& ip : index_) {
      if (tags->None()) break;
      if (!ip.predicate.Eval(row)) tags->AndNot(ip.queries);
    }
    return;
  }
  tags->ClearAll();
  table_.ForEach([&](const ActiveQuery& q) {
    if (Hosts(q) &&
        EvalConjunction(q.desc.SelectOn(config_.stream), row)) {
      tags->Set(q.slot);
    }
  });
}

void SharedSelection::ProcessRecord(int port, spe::Record record,
                                    spe::Collector* out) {
  (void)port;
  std::chrono::steady_clock::time_point start;
  if (config_.measure_overhead) start = std::chrono::steady_clock::now();

  QuerySet tags = ComputeTags(record.row);

  if (config_.measure_overhead) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    queryset_nanos_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count(),
        std::memory_order_relaxed);
  }

  if (tags.None()) {
    ++records_dropped_;
    if (metrics_on_) {
      m_records_in_->Add();
      m_records_dropped_->Add();
    }
    return;
  }
  if (metrics_on_) {
    m_records_in_->Add();
    m_records_out_->Add();
  }
  if (meter_on_) {
    tags.ForEachSetBit([&](size_t slot) {
      if (slot < slot_series_.size() && slot_series_[slot] != nullptr) {
        slot_series_[slot]->cost_rows.Add();
      }
    });
  }
  out->EmitRecord(record.event_time, std::move(record.row),
                  std::move(tags));
}

void SharedSelection::ProcessBatch(int port, spe::RecordBatch& records,
                                   spe::Collector* out) {
  (void)port;
  const int64_t in = static_cast<int64_t>(records.size());
  int64_t dropped = 0;
  if (config_.measure_overhead) {
    // Per-tuple timing, matching ProcessRecord: only query-set generation
    // is measured, never downstream emission.
    int64_t nanos = 0;
    for (spe::Record& record : records) {
      const auto start = std::chrono::steady_clock::now();
      ComputeTagsInto(record.row, &scratch_tags_);
      nanos += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - start)
                   .count();
      if (scratch_tags_.None()) {
        ++dropped;
        continue;
      }
      if (meter_on_) MeterMatchedRows();
      out->EmitRecord(record.event_time, std::move(record.row),
                      QuerySet(scratch_tags_));
    }
    queryset_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  } else {
    for (spe::Record& record : records) {
      ComputeTagsInto(record.row, &scratch_tags_);
      if (scratch_tags_.None()) {
        ++dropped;
        continue;
      }
      if (meter_on_) MeterMatchedRows();
      out->EmitRecord(record.event_time, std::move(record.row),
                      QuerySet(scratch_tags_));
    }
  }
  records_dropped_ += dropped;
  if (metrics_on_) {
    m_records_in_->Add(in);
    m_records_dropped_->Add(dropped);
    m_records_out_->Add(in - dropped);
  }
}

void SharedSelection::OnMarker(const spe::ControlMarker& marker,
                               spe::Collector* out) {
  (void)out;
  const Changelog* log = Changelog::FromMarker(marker);
  if (log == nullptr) return;
  table_.ApplyOrThrow(*log);
  RebuildIndex();
}

Status SharedSelection::SnapshotState(spe::StateWriter* writer) {
  table_.Serialize(writer);
  writer->WriteI64(records_dropped_);
  return Status::OK();
}

Status SharedSelection::RestoreState(spe::StateReader* reader) {
  ASTREAM_RETURN_IF_ERROR(table_.Restore(reader));
  records_dropped_ = reader->ReadI64();
  RebuildIndex();
  return reader->Ok() ? Status::OK()
                      : Status::Internal("bad selection snapshot");
}

}  // namespace astream::core
