#include "core/slice_store.h"

#include <algorithm>

namespace astream::core {

namespace {

/// A spilled entry that does not decode is lost state: it fails the task
/// like any other failed read of a run, never ends a scan early.
void CheckDecoded(const spe::StateReader& dec) {
  if (!dec.Ok()) {
    throw storage::SpillReadError("spilled entry does not decode");
  }
}

}  // namespace

TupleStore::Resident::Resident()
    : arena(std::make_unique<Arena>()),
      groups(0, DynamicBitsetHash{}, std::equal_to<QuerySet>{},
             AA<std::pair<const QuerySet, KeyedRows>>(arena.get())),
      list(0, std::hash<spe::Value>{}, std::equal_to<spe::Value>{},
           AA<std::pair<const spe::Value, TaggedVec>>(arena.get())) {}

TupleStore::TupleStore(StoreMode mode)
    : mode_(mode), res_(std::make_unique<Resident>()) {}

void TupleStore::Insert(const spe::Row& row, const QuerySet& tags) {
  ++num_tuples_;
  ++resident_tuples_;
  // Row payloads live outside the arena; estimate them (columns + rep
  // header) so the governor sees tuple data, not just bookkeeping.
  payload_bytes_ += row.NumColumns() * sizeof(spe::Value) + 32;
  if (mode_ == StoreMode::kGrouped) {
    res_->groups[tags][row.key()].push_back(row);
  } else {
    res_->list[row.key()].emplace_back(row, tags);
  }
}

void TupleStore::ConvertTo(StoreMode mode) {
  if (mode == mode_) return;
  if (mode == StoreMode::kList) {
    for (auto& [tags, keyed] : res_->groups) {
      for (auto& [key, rows] : keyed) {
        auto& bucket = res_->list[key];
        for (auto& row : rows) bucket.emplace_back(std::move(row), tags);
      }
    }
    res_->groups.clear();
  } else {
    for (auto& [key, tagged] : res_->list) {
      for (auto& [row, tags] : tagged) {
        res_->groups[tags][key].push_back(std::move(row));
      }
    }
    res_->list.clear();
  }
  mode_ = mode;
}

size_t TupleStore::NumGroups() const {
  return mode_ == StoreMode::kGrouped ? res_->groups.size()
                                      : resident_tuples_;
}

double TupleStore::AvgGroupSize() const {
  const size_t g = NumGroups();
  return g == 0 ? 0.0 : static_cast<double>(resident_tuples_) / g;
}

size_t TupleStore::SpillToDisk() {
  if (spill_ == nullptr || resident_tuples_ == 0) return 0;
  AdoptCompaction();
  // Constructed first: the spill latency covers the sort and the write.
  storage::SpillWriter writer(spill_);
  std::vector<ScanEntry> entries;
  entries.reserve(resident_tuples_);
  ForEachResident([&](const spe::Row& row, const QuerySet& tags) {
    entries.push_back(ScanEntry{row.key(), row, tags});
  });
  std::stable_sort(entries.begin(), entries.end(),
                   [](const ScanEntry& a, const ScanEntry& b) {
                     return a.key < b.key;
                   });
  for (const ScanEntry& e : entries) {
    spe::StateWriter enc;
    enc.WriteRow(e.row);
    enc.WriteBitset(e.tags);
    if (!writer.Append(e.key, enc.buffer().data(), enc.buffer().size())
             .ok()) {
      // The writer frees its extents; resident state is untouched and the
      // caller stays over budget.
      return 0;
    }
  }
  auto run = writer.Finish();
  if (!run.ok()) return 0;
  runs_.push_back(std::move(run).value());
  MaybeScheduleCompaction();
  const size_t released = ResidentBytes();
  res_ = std::make_unique<Resident>();
  resident_tuples_ = 0;
  payload_bytes_ = 0;
  return released;
}

void TupleStore::AdoptCompaction() const {
  if (compaction_ == nullptr) return;
  const auto state = compaction_->state();
  if (state == storage::CompactionTicket::State::kPending) return;
  if (state == storage::CompactionTicket::State::kDone) {
    // The inputs are exactly runs_[0..n) (spills only ever append), and
    // the output preserves their (key, run index) merge order, so the
    // swap is invisible to every reader.
    const size_t n = compaction_->inputs().size();
    std::vector<storage::SpilledRunPtr> next;
    next.reserve(runs_.size() - n + 1);
    next.push_back(compaction_->output());
    next.insert(next.end(), runs_.begin() + static_cast<ptrdiff_t>(n),
                runs_.end());
    runs_ = std::move(next);
  }
  compaction_.reset();  // failed jobs just leave the inputs in place
}

void TupleStore::MaybeScheduleCompaction() const {
  if (compactor_ == nullptr || compaction_ != nullptr) return;
  if (runs_.size() < compactor_->min_runs()) return;
  compaction_ = compactor_->Submit(runs_);
  if (compactor_->sync()) AdoptCompaction();
}

namespace {

/// Key-level hash join between two keyed-row maps belonging to groups
/// whose combined tag set `tags` is already known to be non-empty.
template <typename KeyedRowsMap>
void JoinKeyed(const TupleStore::JoinEmit& emit, const QuerySet& tags,
               const KeyedRowsMap& a, const KeyedRowsMap& b) {
  const bool a_smaller = a.size() <= b.size();
  const auto& probe = a_smaller ? a : b;
  const auto& build = a_smaller ? b : a;
  for (const auto& [key, probe_rows] : probe) {
    auto hit = build.find(key);
    if (hit == build.end()) continue;
    for (const auto& pr : probe_rows) {
      for (const auto& br : hit->second) {
        const spe::Row& left = a_smaller ? pr : br;
        const spe::Row& right = a_smaller ? br : pr;
        emit(left, right, tags);
      }
    }
  }
}

/// Collects the next run of equal-key entries from a sorted stream.
/// `pending`/`has_pending` carry the one-entry lookahead between calls.
bool NextGroup(TupleStore::SortedStream* s, TupleStore::ScanEntry* pending,
               bool* has_pending,
               std::vector<TupleStore::ScanEntry>* group) {
  if (!*has_pending && !s->Next(pending)) return false;
  *has_pending = false;
  group->clear();
  group->push_back(std::move(*pending));
  while (s->Next(pending)) {
    if (pending->key != group->front().key) {
      *has_pending = true;
      return true;
    }
    group->push_back(std::move(*pending));
  }
  return true;
}

}  // namespace

int64_t TupleStore::MergeJoin(const TupleStore& a, const TupleStore& b,
                              const QuerySet& mask, const JoinEmit& emit) {
  // Group-wise sorted merge: both sides stream in key order (resident
  // snapshot + runs); only the current key group of each side is in
  // memory. Tag accounting matches the resident list path.
  int64_t ops = 0;
  auto sa = a.SortedScan();
  auto sb = b.SortedScan();
  ScanEntry pa, pb;
  bool ha = false, hb = false;
  std::vector<ScanEntry> ga, gb;
  bool va = NextGroup(sa.get(), &pa, &ha, &ga);
  bool vb = NextGroup(sb.get(), &pb, &hb, &gb);
  while (va && vb) {
    const int64_t ka = ga.front().key;
    const int64_t kb = gb.front().key;
    if (ka < kb) {
      va = NextGroup(sa.get(), &pa, &ha, &ga);
    } else if (kb < ka) {
      vb = NextGroup(sb.get(), &pb, &hb, &gb);
    } else {
      for (const ScanEntry& ea : ga) {
        QuerySet ta = ea.tags & mask;
        ++ops;
        if (ta.None()) continue;
        for (const ScanEntry& eb : gb) {
          QuerySet combined = ta & eb.tags;
          ++ops;
          if (combined.None()) continue;
          emit(ea.row, eb.row, std::move(combined));
        }
      }
      va = NextGroup(sa.get(), &pa, &ha, &ga);
      vb = NextGroup(sb.get(), &pb, &hb, &gb);
    }
  }
  return ops;
}

void TupleStore::CollectResident(spe::Value key, RowRefs* out) const {
  if (mode_ == StoreMode::kList) {
    auto it = res_->list.find(key);
    if (it == res_->list.end()) return;
    for (const auto& [row, tags] : it->second) out->emplace_back(&row, &tags);
  } else {
    for (const auto& [tags, keyed] : res_->groups) {
      auto it = keyed.find(key);
      if (it == keyed.end()) continue;
      for (const auto& row : it->second) out->emplace_back(&row, &tags);
    }
  }
}

int64_t TupleStore::HashJoin(const TupleStore& a, const TupleStore& b,
                             const QuerySet& mask, const JoinEmit& emit) {
  int64_t ops = 0;
  if (a.resident_tuples_ == 0 || b.resident_tuples_ == 0) return ops;

  if (a.mode_ == StoreMode::kGrouped && b.mode_ == StoreMode::kGrouped) {
    // The paper's group pruning: skip group pairs that share no query.
    for (const auto& [ga, keyed_a] : a.res_->groups) {
      QuerySet ga_masked = ga & mask;
      ++ops;
      if (ga_masked.None()) continue;
      for (const auto& [gb, keyed_b] : b.res_->groups) {
        QuerySet combined = ga_masked & gb;
        ++ops;
        if (combined.None()) continue;
        JoinKeyed(emit, combined, keyed_a, keyed_b);
      }
    }
    return ops;
  }

  // At least one side is a flat list: join per key with per-tuple tag ANDs.
  auto for_each_key_a = [&](auto&& fn) {
    if (a.mode_ == StoreMode::kList) {
      for (const auto& [key, tagged] : a.res_->list) fn(key);
    } else {
      // Collect distinct keys across groups.
      std::unordered_map<spe::Value, bool> seen;
      for (const auto& [ga, keyed] : a.res_->groups) {
        for (const auto& [key, rows] : keyed) {
          if (!seen.emplace(key, true).second) continue;
          fn(key);
        }
      }
    }
  };
  // Scratch rows reused across keys and Join calls (per task thread): the
  // probe loop runs once per distinct key, so per-call vectors would churn
  // an allocation pair per key.
  static thread_local RowRefs rows_a;
  static thread_local RowRefs rows_b;
  for_each_key_a([&](spe::Value key) {
    rows_a.clear();
    rows_b.clear();
    a.CollectResident(key, &rows_a);
    if (rows_a.empty()) return;
    b.CollectResident(key, &rows_b);
    if (rows_b.empty()) return;
    for (const auto& [row_a, tags_a] : rows_a) {
      QuerySet ta = *tags_a & mask;
      ++ops;
      if (ta.None()) continue;
      for (const auto& [row_b, tags_b] : rows_b) {
        QuerySet combined = ta & *tags_b;
        ++ops;
        if (combined.None()) continue;
        emit(*row_a, *row_b, std::move(combined));
      }
    }
  });
  return ops;
}

int64_t TupleStore::ProbeJoin(const TupleStore& a, const TupleStore& b,
                              const QuerySet& mask, const JoinEmit& emit) {
  // Exactly one side holds runs. Its resident tail is an ordinary hash
  // join; each entry of its runs is read key first and looked up in the
  // other side's resident index, and only a hit decodes the entry. Every
  // block is still read and checked, so a damaged run throws even when
  // none of its keys would match.
  const bool a_spilled = a.HasSpill();
  const TupleStore& spilled = a_spilled ? a : b;
  const TupleStore& resident = a_spilled ? b : a;
  int64_t ops = HashJoin(a, b, mask, emit);
  spilled.AdoptCompaction();
  static thread_local RowRefs hits;
  std::vector<uint8_t> payload;
  for (const storage::SpilledRunPtr& run : spilled.runs_) {
    storage::SpillReader reader(run);
    int64_t key = 0;
    while (reader.NextKey(&key)) {
      hits.clear();
      resident.CollectResident(key, &hits);
      if (hits.empty()) continue;
      reader.Payload(&payload);
      spe::StateReader dec(std::move(payload));
      const spe::Row row = dec.ReadRow();
      const QuerySet masked = dec.ReadBitset() & mask;
      CheckDecoded(dec);
      ++ops;
      if (masked.None()) continue;
      for (const auto& [other_row, other_tags] : hits) {
        QuerySet combined = masked & *other_tags;
        ++ops;
        if (combined.None()) continue;
        if (a_spilled) {
          emit(row, *other_row, std::move(combined));
        } else {
          emit(*other_row, row, std::move(combined));
        }
      }
    }
  }
  return ops;
}

int64_t TupleStore::Join(const TupleStore& a, const TupleStore& b,
                         const QuerySet& mask, const JoinEmit& emit) {
  if (a.num_tuples_ == 0 || b.num_tuples_ == 0 || mask.None()) return 0;
  if (a.HasSpill() && b.HasSpill()) return MergeJoin(a, b, mask, emit);
  if (a.HasSpill() || b.HasSpill()) return ProbeJoin(a, b, mask, emit);
  return HashJoin(a, b, mask, emit);
}

std::unique_ptr<TupleStore::SortedStream> TupleStore::SortedScan() const {
  AdoptCompaction();
  auto stream = std::unique_ptr<SortedStream>(new SortedStream());
  stream->resident_.reserve(resident_tuples_);
  ForEachResident([&](const spe::Row& row, const QuerySet& tags) {
    stream->resident_.push_back(ScanEntry{row.key(), row, tags});
  });
  std::stable_sort(stream->resident_.begin(), stream->resident_.end(),
                   [](const ScanEntry& a, const ScanEntry& b) {
                     return a.key < b.key;
                   });

  std::vector<storage::KWayMerge<ScanEntry>::Source> sources;
  SortedStream* s = stream.get();
  sources.push_back([s](ScanEntry* out) {
    if (s->resident_pos_ >= s->resident_.size()) return false;
    *out = s->resident_[s->resident_pos_++];
    return true;
  });
  for (const storage::SpilledRunPtr& run : runs_) {
    storage::SpillReader* r =
        stream->readers_
            .emplace_back(std::make_unique<storage::SpillReader>(run))
            .get();
    sources.push_back([r](ScanEntry* out) {
      int64_t key = 0;
      std::vector<uint8_t> payload;
      if (!r->Next(&key, &payload)) return false;
      spe::StateReader dec(std::move(payload));
      out->key = key;
      out->row = dec.ReadRow();
      out->tags = dec.ReadBitset();
      CheckDecoded(dec);
      return true;
    });
  }
  stream->merge_ =
      std::make_unique<storage::KWayMerge<ScanEntry>>(std::move(sources));
  return stream;
}

void TupleStore::ForEachResident(
    const std::function<void(const spe::Row&, const QuerySet&)>& fn) const {
  if (mode_ == StoreMode::kGrouped) {
    for (const auto& [tags, keyed] : res_->groups) {
      for (const auto& [key, rows] : keyed) {
        for (const auto& row : rows) fn(row, tags);
      }
    }
  } else {
    for (const auto& [key, tagged] : res_->list) {
      for (const auto& [row, tags] : tagged) fn(row, tags);
    }
  }
}

void TupleStore::ForEach(
    const std::function<void(const spe::Row&, const QuerySet&)>& fn) const {
  AdoptCompaction();
  for (const storage::SpilledRunPtr& run : runs_) {
    storage::SpillReader reader(run);
    int64_t key = 0;
    std::vector<uint8_t> payload;
    while (reader.Next(&key, &payload)) {
      spe::StateReader dec(std::move(payload));
      spe::Row row = dec.ReadRow();
      QuerySet tags = dec.ReadBitset();
      CheckDecoded(dec);
      fn(row, tags);
    }
  }
  ForEachResident(fn);
}

void TupleStore::Serialize(spe::StateWriter* writer) const {
  writer->WriteI64(static_cast<int64_t>(mode_));
  writer->WriteU64(num_tuples_);
  ForEach([&](const spe::Row& row, const QuerySet& tags) {
    writer->WriteRow(row);
    writer->WriteBitset(tags);
  });
}

TupleStore TupleStore::Deserialize(spe::StateReader* reader) {
  const StoreMode mode = static_cast<StoreMode>(reader->ReadI64());
  TupleStore store(mode);
  const uint64_t n = reader->ReadU64();
  for (uint64_t i = 0; i < n && reader->Ok(); ++i) {
    spe::Row row = reader->ReadRow();
    QuerySet tags = reader->ReadBitset();
    store.Insert(row, tags);
  }
  return store;
}

AggStore::Resident::Resident()
    : arena(std::make_unique<Arena>()),
      keys(0, std::hash<spe::Value>{}, std::equal_to<spe::Value>{},
           AA<std::pair<const spe::Value, GroupVec>>(arena.get())) {}

AggStore::AggStore() : res_(std::make_unique<Resident>()) {}

namespace {

void EncodeAcc(spe::StateWriter* w, const spe::Accumulator& acc) {
  w->WriteI64(acc.sum);
  w->WriteI64(acc.count);
  w->WriteI64(acc.min);
  w->WriteI64(acc.max);
}

void DecodeAcc(spe::StateReader* r, spe::Accumulator* acc) {
  acc->sum = r->ReadI64();
  acc->count = r->ReadI64();
  acc->min = r->ReadI64();
  acc->max = r->ReadI64();
}

/// Folds `acc` into the group of `tags` in `groups` (same dedup rule as
/// the resident insert path: one group per distinct tag set).
void FoldGroup(std::vector<AggStore::Group>* groups, const QuerySet& tags,
               const spe::Accumulator& acc) {
  for (AggStore::Group& g : *groups) {
    if (g.tags == tags) {
      g.acc.Merge(acc);
      return;
    }
  }
  groups->push_back(AggStore::Group{tags, acc});
}

}  // namespace

void AggStore::Add(spe::Value key, const QuerySet& tags, spe::Value value) {
  auto& groups = res_->keys[key];
  for (Group& g : groups) {
    if (g.tags == tags) {
      g.acc.Add(value);
      return;
    }
  }
  Group g;
  g.tags = tags;
  g.acc.Add(value);
  groups.push_back(std::move(g));
}

spe::Accumulator AggStore::SlotAccumulator(spe::Value key, int slot) const {
  spe::Accumulator acc;
  auto it = res_->keys.find(key);
  if (it == res_->keys.end()) return acc;
  for (const Group& g : it->second) {
    if (g.tags.Test(slot)) acc.Merge(g.acc);
  }
  return acc;
}

void AggStore::ForEachGroupsMerged(const GroupsFn& fn) const {
  if (runs_.empty()) {
    for (const auto& [key, groups] : res_->keys) {
      if (!groups.empty()) fn(key, groups.data(), groups.size());
    }
    return;
  }
  ForEachMergedEntry([&](spe::Value key, const std::vector<Group>& groups) {
    if (!groups.empty()) fn(key, groups.data(), groups.size());
  });
}

size_t AggStore::SpillToDisk() {
  if (spill_ == nullptr || res_->keys.empty()) return 0;
  AdoptCompaction();
  storage::SpillWriter writer(spill_);
  std::vector<ScanEntry> entries;
  entries.reserve(res_->keys.size());
  for (const auto& [key, groups] : res_->keys) {
    ScanEntry e;
    e.key = key;
    e.groups.assign(groups.begin(), groups.end());
    entries.push_back(std::move(e));
  }
  std::sort(entries.begin(), entries.end(),
            [](const ScanEntry& a, const ScanEntry& b) {
              return a.key < b.key;
            });
  for (const ScanEntry& e : entries) {
    spe::StateWriter enc;
    enc.WriteU64(e.groups.size());
    for (const Group& g : e.groups) {
      enc.WriteBitset(g.tags);
      EncodeAcc(&enc, g.acc);
    }
    if (!writer.Append(e.key, enc.buffer().data(), enc.buffer().size())
             .ok()) {
      return 0;
    }
  }
  auto run = writer.Finish();
  if (!run.ok()) return 0;
  runs_.push_back(std::move(run).value());
  MaybeScheduleCompaction();
  const size_t released = ResidentBytes();
  res_ = std::make_unique<Resident>();
  return released;
}

void AggStore::AdoptCompaction() const {
  if (compaction_ == nullptr) return;
  const auto state = compaction_->state();
  if (state == storage::CompactionTicket::State::kPending) return;
  if (state == storage::CompactionTicket::State::kDone) {
    const size_t n = compaction_->inputs().size();
    std::vector<storage::SpilledRunPtr> next;
    next.reserve(runs_.size() - n + 1);
    next.push_back(compaction_->output());
    next.insert(next.end(), runs_.begin() + static_cast<ptrdiff_t>(n),
                runs_.end());
    runs_ = std::move(next);
  }
  compaction_.reset();
}

void AggStore::MaybeScheduleCompaction() const {
  if (compactor_ == nullptr || compaction_ != nullptr) return;
  if (runs_.size() < compactor_->min_runs()) return;
  compaction_ = compactor_->Submit(runs_);
  if (compactor_->sync()) AdoptCompaction();
}

void AggStore::ForEachMergedEntry(
    const std::function<void(spe::Value, const std::vector<Group>&)>& fn)
    const {
  // Sorted resident snapshot + one source per run, k-way merged; equal
  // keys are folded group-wise (same-tag groups merge) before fn sees
  // them.
  AdoptCompaction();
  std::vector<ScanEntry> resident;
  resident.reserve(res_->keys.size());
  for (const auto& [key, groups] : res_->keys) {
    ScanEntry e;
    e.key = key;
    e.groups.assign(groups.begin(), groups.end());
    resident.push_back(std::move(e));
  }
  std::sort(resident.begin(), resident.end(),
            [](const ScanEntry& a, const ScanEntry& b) {
              return a.key < b.key;
            });
  size_t resident_pos = 0;
  std::vector<std::unique_ptr<storage::SpillReader>> readers;
  std::vector<storage::KWayMerge<ScanEntry>::Source> sources;
  sources.push_back([&resident, &resident_pos](ScanEntry* out) {
    if (resident_pos >= resident.size()) return false;
    *out = resident[resident_pos++];
    return true;
  });
  for (const storage::SpilledRunPtr& run : runs_) {
    storage::SpillReader* r =
        readers.emplace_back(std::make_unique<storage::SpillReader>(run))
            .get();
    sources.push_back([r](ScanEntry* out) {
      int64_t key = 0;
      std::vector<uint8_t> payload;
      if (!r->Next(&key, &payload)) return false;
      spe::StateReader dec(std::move(payload));
      out->key = key;
      const uint64_t n = dec.ReadU64();
      out->groups.clear();
      out->groups.reserve(n);
      for (uint64_t i = 0; i < n && dec.Ok(); ++i) {
        Group g;
        g.tags = dec.ReadBitset();
        DecodeAcc(&dec, &g.acc);
        out->groups.push_back(std::move(g));
      }
      CheckDecoded(dec);
      return true;
    });
  }
  storage::KWayMerge<ScanEntry> merge(std::move(sources));
  ScanEntry cur;
  bool have = false;
  ScanEntry e;
  while (merge.Next(&e)) {
    if (have && e.key == cur.key) {
      for (const Group& g : e.groups) FoldGroup(&cur.groups, g.tags, g.acc);
    } else {
      if (have) fn(cur.key, cur.groups);
      cur = std::move(e);
      have = true;
    }
  }
  if (have) fn(cur.key, cur.groups);
}

void AggStore::Serialize(spe::StateWriter* writer) const {
  if (runs_.empty()) {
    writer->WriteU64(res_->keys.size());
    for (const auto& [key, groups] : res_->keys) {
      writer->WriteI64(key);
      writer->WriteU64(groups.size());
      for (const Group& g : groups) {
        writer->WriteBitset(g.tags);
        EncodeAcc(writer, g.acc);
      }
    }
    return;
  }
  // Spilled: the snapshot is the merged logical state. The count-prefixed
  // format needs the number of distinct keys up front, so pass one counts
  // and pass two writes — both streaming.
  uint64_t num_keys = 0;
  ForEachMergedEntry(
      [&](spe::Value, const std::vector<Group>&) { ++num_keys; });
  writer->WriteU64(num_keys);
  ForEachMergedEntry([&](spe::Value key, const std::vector<Group>& groups) {
    writer->WriteI64(key);
    writer->WriteU64(groups.size());
    for (const Group& g : groups) {
      writer->WriteBitset(g.tags);
      EncodeAcc(writer, g.acc);
    }
  });
}

AggStore AggStore::Deserialize(spe::StateReader* reader) {
  AggStore store;
  const uint64_t n = reader->ReadU64();
  for (uint64_t i = 0; i < n && reader->Ok(); ++i) {
    const spe::Value key = reader->ReadI64();
    const uint64_t num_groups = reader->ReadU64();
    auto& groups = store.res_->keys[key];
    groups.reserve(num_groups);
    for (uint64_t g = 0; g < num_groups && reader->Ok(); ++g) {
      Group grp;
      grp.tags = reader->ReadBitset();
      DecodeAcc(reader, &grp.acc);
      groups.push_back(std::move(grp));
    }
  }
  return store;
}

}  // namespace astream::core
