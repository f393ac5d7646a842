#include "core/changelog.h"

namespace astream::core {

void Changelog::ComputeChangelogSet() {
  changelog_set = QuerySet::AllSet(num_slots);
  for (const QueryDeactivation& d : deleted) changelog_set.Reset(d.slot);
  for (const QueryActivation& c : created) changelog_set.Reset(c.slot);
}

std::string Changelog::ToString() const {
  std::string s = "changelog{epoch=" + std::to_string(epoch) +
                  ", t=" + std::to_string(time);
  s += ", +[";
  for (size_t i = 0; i < created.size(); ++i) {
    if (i > 0) s += ",";
    s += "Q" + std::to_string(created[i].id) + "@s" +
         std::to_string(created[i].slot);
  }
  s += "], -[";
  for (size_t i = 0; i < deleted.size(); ++i) {
    if (i > 0) s += ",";
    s += "Q" + std::to_string(deleted[i].id) + "@s" +
         std::to_string(deleted[i].slot);
  }
  s += "], cl-set=" + changelog_set.ToString(num_slots) + "}";
  return s;
}

void Changelog::Serialize(spe::StateWriter* writer) const {
  writer->WriteI64(epoch);
  writer->WriteI64(time);
  writer->WriteU64(num_slots);
  writer->WriteU64(created.size());
  for (const QueryActivation& c : created) {
    writer->WriteI64(c.id);
    writer->WriteI64(c.slot);
    writer->WriteI64(c.created_at);
    c.desc.Serialize(writer);
  }
  writer->WriteU64(deleted.size());
  for (const QueryDeactivation& d : deleted) {
    writer->WriteI64(d.id);
    writer->WriteI64(d.slot);
  }
}

Changelog Changelog::Deserialize(spe::StateReader* reader) {
  Changelog log;
  log.epoch = reader->ReadI64();
  log.time = reader->ReadI64();
  log.num_slots = reader->ReadU64();
  const uint64_t created = reader->ReadU64();
  for (uint64_t i = 0; i < created && reader->Ok(); ++i) {
    QueryActivation a;
    a.id = reader->ReadI64();
    a.slot = static_cast<int>(reader->ReadI64());
    a.created_at = reader->ReadI64();
    a.desc = QueryDescriptor::Deserialize(reader);
    log.created.push_back(std::move(a));
  }
  const uint64_t deleted = reader->ReadU64();
  for (uint64_t i = 0; i < deleted && reader->Ok(); ++i) {
    QueryDeactivation d;
    d.id = reader->ReadI64();
    d.slot = static_cast<int>(reader->ReadI64());
    log.deleted.push_back(d);
  }
  log.ComputeChangelogSet();
  return log;
}

spe::ControlMarker Changelog::MakeMarker(
    std::shared_ptr<const Changelog> log) {
  spe::ControlMarker marker;
  marker.kind = spe::MarkerKind::kChangelog;
  marker.epoch = log->epoch;
  marker.time = log->time;
  marker.payload = std::move(log);
  return marker;
}

const Changelog* Changelog::FromMarker(const spe::ControlMarker& marker) {
  if (marker.kind != spe::MarkerKind::kChangelog) return nullptr;
  return static_cast<const Changelog*>(marker.payload.get());
}

Status ActiveQueryTable::Apply(const Changelog& log) {
  if (log.epoch <= last_epoch_) {
    return Status::FailedPrecondition("changelog epoch replayed");
  }
  if (log.num_slots > slots_.size()) slots_.resize(log.num_slots);
  for (const QueryDeactivation& d : log.deleted) {
    if (d.slot < 0 || d.slot >= static_cast<int>(slots_.size()) ||
        !slots_[d.slot].has_value() || slots_[d.slot]->id != d.id) {
      return Status::InvalidArgument(
          "changelog deletes query not present in slot " +
          std::to_string(d.slot));
    }
    slots_[d.slot].reset();
    --num_active_;
  }
  for (const QueryActivation& c : log.created) {
    if (c.slot < 0 || c.slot >= static_cast<int>(slots_.size()) ||
        slots_[c.slot].has_value()) {
      return Status::InvalidArgument(
          "changelog creates query in occupied/invalid slot " +
          std::to_string(c.slot));
    }
    ActiveQuery q;
    q.id = c.id;
    q.slot = c.slot;
    q.created_at = c.created_at;
    q.desc = c.desc;
    slots_[c.slot] = std::move(q);
    ++num_active_;
  }
  last_epoch_ = log.epoch;
  return Status::OK();
}

void ActiveQueryTable::ApplyOrThrow(const Changelog& log) {
  const Status s = Apply(log);
  if (!s.ok()) {
    throw ChangelogApplyError("changelog apply failed: " + s.ToString());
  }
}

const ActiveQuery* ActiveQueryTable::QueryAt(int slot) const {
  if (slot < 0 || slot >= static_cast<int>(slots_.size())) return nullptr;
  return slots_[slot].has_value() ? &*slots_[slot] : nullptr;
}

const ActiveQuery* ActiveQueryTable::FindById(QueryId id) const {
  for (const auto& q : slots_) {
    if (q.has_value() && q->id == id) return &*q;
  }
  return nullptr;
}

void ActiveQueryTable::Serialize(spe::StateWriter* writer) const {
  writer->WriteI64(last_epoch_);
  writer->WriteU64(slots_.size());
  for (const auto& q : slots_) {
    writer->WriteBool(q.has_value());
    if (q.has_value()) {
      writer->WriteI64(q->id);
      writer->WriteI64(q->slot);
      writer->WriteI64(q->created_at);
      q->desc.Serialize(writer);
    }
  }
}

Status ActiveQueryTable::Restore(spe::StateReader* reader) {
  slots_.clear();
  num_active_ = 0;
  last_epoch_ = reader->ReadI64();
  const uint64_t n = reader->ReadU64();
  slots_.resize(n);
  for (uint64_t i = 0; i < n && reader->Ok(); ++i) {
    if (reader->ReadBool()) {
      ActiveQuery q;
      q.id = reader->ReadI64();
      q.slot = static_cast<int>(reader->ReadI64());
      q.created_at = reader->ReadI64();
      q.desc = QueryDescriptor::Deserialize(reader);
      slots_[i] = std::move(q);
      ++num_active_;
    }
  }
  return reader->Ok() ? Status::OK()
                      : Status::Internal("bad ActiveQueryTable snapshot");
}

}  // namespace astream::core
