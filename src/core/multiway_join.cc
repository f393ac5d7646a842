#include "core/multiway_join.h"

#include <algorithm>
#include <limits>
#include <tuple>

namespace astream::core {

namespace {

std::vector<int> DeclaredStreams(const QueryDescriptor& desc) {
  std::vector<int> out;
  out.reserve(desc.join_inputs.size());
  for (const JoinInput& in : desc.join_inputs) out.push_back(in.stream);
  return out;
}

}  // namespace

SharedMultiwayJoin::SharedMultiwayJoin(SharedOperatorConfig config,
                                       int num_streams)
    : SharedWindowedOperator(std::move(config)),
      num_streams_(num_streams),
      ports_(num_streams),
      cost_model_(num_streams) {
  for (TupleArrangement& port : ports_) {
    port.BindSpill(spill_space());
    port.BindCompactor(compactor());
    port.SetAccessAware(access_aware_eviction());
  }
  if (governor() != nullptr) governor()->Register(this);
}

SharedMultiwayJoin::~SharedMultiwayJoin() {
  if (governor() != nullptr) governor()->Unregister(this);
}

void SharedMultiwayJoin::RefreshArenaBytes() {
  int64_t bytes = 0;
  size_t resident = 0;
  int64_t coldest_index = TupleArrangement::kNoVersion;
  for (const TupleArrangement& port : ports_) {
    port.AddBytes(&bytes, &resident, &coldest_index);
  }
  state_arena_bytes_.Set(bytes);
  if (governor() == nullptr) return;
  int64_t coldest_end = std::numeric_limits<int64_t>::max();
  if (coldest_index != TupleArrangement::kNoVersion) {
    auto slice = tracker().SliceByIndex(coldest_index);
    coldest_end = slice.has_value() ? slice->end : coldest_index;
  }
  // Report the read heat of the slice SpillOnce would pick, so the
  // governor's cross-operator ordering sees the access signal (see
  // SharedJoin::RefreshArenaBytes).
  int64_t victim_reads = 0;
  if (access_aware_eviction() &&
      coldest_index != TupleArrangement::kNoVersion) {
    int64_t best_v = TupleArrangement::kNoVersion;
    int64_t best_r = 0;
    for (const TupleArrangement& port : ports_) {
      int64_t r = 0;
      const int64_t v = port.PickVictim(&r);
      if (v == TupleArrangement::kNoVersion) continue;
      if (best_v == TupleArrangement::kNoVersion ||
          std::tie(r, v) < std::tie(best_r, best_v)) {
        best_v = v;
        best_r = r;
      }
    }
    victim_reads = best_v == TupleArrangement::kNoVersion ? 0 : best_r;
  }
  governor()->Update(this, resident, coldest_end, victim_reads);
}

void SharedMultiwayJoin::EnforceBudget() {
  if (governor() != nullptr) governor()->Enforce(this);
}

size_t SharedMultiwayJoin::ReleaseChainMemo() {
  if (chain_memo_.empty()) return 0;
  const size_t released =
      std::max(chain_memo_bytes_, chain_memo_.size() * sizeof(MemoEntry));
  chain_memo_.clear();
  chain_memo_bytes_ = 0;
  return released;
}

size_t SharedMultiwayJoin::SpillOnce() {
  // Derived state goes first: the chain memo is recomputable on demand.
  if (!chain_memo_.empty()) return ReleaseChainMemo();
  int64_t best_v = TupleArrangement::kNoVersion;
  int64_t best_r = 0;
  for (const TupleArrangement& port : ports_) {
    int64_t r = 0;
    const int64_t v = port.PickVictim(&r);
    if (v == TupleArrangement::kNoVersion) continue;
    if (best_v == TupleArrangement::kNoVersion ||
        std::tie(r, v) < std::tie(best_r, best_v)) {
      best_v = v;
      best_r = r;
    }
  }
  if (best_v == TupleArrangement::kNoVersion) return 0;
  int64_t coldest = TupleArrangement::kNoVersion;
  for (const TupleArrangement& port : ports_) {
    coldest = std::min(coldest, port.ColdestResident());
  }
  if (best_v != coldest) reload_saves_.Add(1);
  size_t released = 0;
  for (TupleArrangement& port : ports_) released += port.SpillAt(best_v);
  released += tracker().cl_table().SpillBelow(best_v, spill_space());
  RefreshArenaBytes();
  return released;
}

void SharedMultiwayJoin::ProcessRecord(int port, spe::Record record,
                                       spe::Collector* out) {
  (void)out;
  NoteEventTime(record.event_time);
  cost_model_.ObserveInserts(port, 1);
  if (record.event_time < current_watermark()) {
    records_late_.Add(1);
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
  ports_[port].StoreAt(slice.index, current_mode()).Insert(record.row, tags);
  RefreshArenaBytes();
  EnforceBudget();
}

void SharedMultiwayJoin::ProcessBatch(int port, spe::RecordBatch& records,
                                      spe::Collector* out) {
  (void)out;
  SliceCursor cursor;
  TupleStore* cached_store = nullptr;
  int64_t ops = 0;
  int64_t late = 0;
  int64_t arrived = 0;
  for (spe::Record& record : records) {
    NoteEventTime(record.event_time);
    ++arrived;
    if (record.event_time < current_watermark()) {
      ++late;
      if (metrics_on()) {
        (record.tags & hosted_mask()).ForEachSetBit([&](size_t slot) {
          if (obs::QuerySeries* s = SeriesForSlot(slot)) s->late_drops.Add();
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
          &ports_[port].StoreAt(cursor.slice().index, current_mode());
    }
    cached_store->Insert(record.row, scratch_tags_);
  }
  bitset_ops_.Add(ops);
  records_late_.Add(late);
  cost_model_.ObserveInserts(port, arrived);
  RefreshArenaBytes();
  EnforceBudget();
}

SharedMultiwayJoin::Plan SharedMultiwayJoin::PlanFor(
    const ActiveQuery& query) {
  Plan plan;
  plan.declared = DeclaredStreams(query.desc);
  const std::vector<int> cost_order = cost_model_.Order(plan.declared);
  if (share_arrangements()) {
    plan.chain = registry_.AcquireFor(query.slot, cost_order);
  } else {
    plan.chain = cost_order;  // reference mode: no sub-join attachment
  }
  return plan;
}

void SharedMultiwayJoin::OnQueryCreated(const ActiveQuery& query) {
  if (query.desc.kind != QueryKind::kMultiJoin) return;
  plans_[query.slot] = PlanFor(query);
}

void SharedMultiwayJoin::OnQueryDeleted(const DrainingQuery& draining) {
  auto it = plans_.find(draining.query.slot);
  if (it == plans_.end()) return;
  draining_plans_[draining.query.id] = std::move(it->second);
  plans_.erase(it);
  if (share_arrangements()) registry_.Release(draining.query.slot);
}

const SharedMultiwayJoin::Plan* SharedMultiwayJoin::ActivePlan(
    int slot) const {
  auto it = plans_.find(slot);
  return it == plans_.end() ? nullptr : &it->second;
}

const SharedMultiwayJoin::WindowIndex& SharedMultiwayJoin::IndexFor(
    int port, const std::vector<SliceInfo>& slices,
    std::map<int, WindowIndex>* cache) {
  auto it = cache->find(port);
  if (it != cache->end()) return it->second;
  WindowIndex index;
  for (const SliceInfo& s : slices) {
    const TupleStore* store = ports_[port].AtVersion(s.index);
    if (store == nullptr) continue;
    store->ForEach([&](const spe::Row& row, const QuerySet& tags) {
      index[row.key()].push_back(IndexEntry{row, tags, s.index});
    });
  }
  return (*cache)[port] = std::move(index);
}

const std::vector<SharedMultiwayJoin::Combination>&
SharedMultiwayJoin::EvalChain(const std::vector<int>& chain, size_t len,
                              TimestampMs start, TimestampMs end,
                              const std::vector<SliceInfo>& slices,
                              std::map<int, WindowIndex>* index_cache,
                              bool* computed, TriggerTally* tally) {
  ChainKey key{std::vector<int>(chain.begin(), chain.begin() + len),
               {start, end}};
  auto hit = chain_memo_.find(key);
  if (hit != chain_memo_.end()) {
    ++tally->chains_reused;
    *computed = false;
    return hit->second.combos;
  }
  ++tally->chains_computed;
  *computed = true;
  MemoEntry entry;
  if (len == 1) {
    const WindowIndex& index = IndexFor(chain[0], slices, index_cache);
    for (const auto& [k, entries] : index) {
      for (const IndexEntry& e : entries) {
        Combination c;
        c.parts.push_back(e.row);
        c.tags = e.tags;
        c.key = k;
        c.lo = c.hi = e.slice;
        entry.combos.push_back(std::move(c));
      }
    }
  } else {
    bool sub_computed = false;
    const std::vector<Combination>& prev =
        EvalChain(chain, len - 1, start, end, slices, index_cache,
                  &sub_computed, tally);
    const WindowIndex& index = IndexFor(chain[len - 1], slices, index_cache);
    for (const Combination& c : prev) {
      auto probe = index.find(c.key);
      if (probe == index.end()) continue;
      for (const IndexEntry& e : probe->second) {
        QuerySet tags = c.tags & e.tags;
        ++tally->bitset_ops;
        if (tags.None()) continue;
        const int64_t lo = std::min(c.lo, e.slice);
        const int64_t hi = std::max(c.hi, e.slice);
        // Eq. 1 transitivity: the wide-span mask subsumes every narrower
        // mask already applied, so re-ANDing it yields exactly
        // (AND of member tags) & Mask(min slice, max slice).
        tags &= tracker().cl_table().Mask(lo, hi);
        ++tally->bitset_ops;
        if (tags.None()) continue;
        Combination nc;
        nc.parts = c.parts;
        nc.parts.push_back(e.row);
        nc.tags = std::move(tags);
        nc.key = c.key;
        nc.lo = lo;
        nc.hi = hi;
        entry.combos.push_back(std::move(nc));
      }
    }
  }
  entry.min_slice =
      slices.empty() ? TupleArrangement::kNoVersion : slices.front().index;
  entry.bytes = sizeof(MemoEntry);
  for (const Combination& c : entry.combos) {
    entry.bytes += sizeof(Combination) + c.parts.size() * sizeof(spe::Row) +
                   sizeof(QuerySet);
  }
  chain_memo_bytes_ += entry.bytes;
  auto [pos, inserted] = chain_memo_.emplace(std::move(key), std::move(entry));
  (void)inserted;
  return pos->second.combos;
}

void SharedMultiwayJoin::TriggerWindows(
    TimestampMs start, TimestampMs end,
    const std::vector<TriggeredQuery>& queries, spe::Collector* out) {
  // Emission unit = (probe chain, declared leg order): queries in a unit
  // share both the evaluated combinations and the output column order, so
  // one pass emits a single record per combination with the unit's
  // combined tag set. Units with a common chain prefix share its memoized
  // combinations; the map keeps unit order deterministic.
  struct Unit {
    QuerySet active_bits;
    std::vector<std::pair<int, QueryId>> draining;  // (slot, id)
    std::vector<const TriggeredQuery*> members;
  };
  std::map<std::pair<std::vector<int>, std::vector<int>>, Unit> units;
  for (const TriggeredQuery& tq : queries) {
    const Plan* plan = nullptr;
    if (tq.draining) {
      auto it = draining_plans_.find(tq.query->id);
      if (it != draining_plans_.end()) plan = &it->second;
    } else {
      plan = ActivePlan(tq.query->slot);
    }
    if (plan == nullptr) continue;
    Unit& unit = units[{plan->chain, plan->declared}];
    if (tq.draining) {
      unit.draining.emplace_back(tq.query->slot, tq.query->id);
    } else {
      unit.active_bits.Set(tq.query->slot);
    }
    unit.members.push_back(&tq);
  }
  if (units.empty()) return;

  const std::vector<SliceInfo> slices = tracker().SlicesIn(start, end);
  for (const auto& [key, unit] : units) {
    (void)unit;
    for (int port : key.first) {
      for (const SliceInfo& s : slices) ports_[port].NoteRead(s.index);
    }
  }

  std::map<int, WindowIndex> index_cache;
  TriggerTally tally;
  const TimestampMs result_time = end - 1;
  for (const auto& [key, unit] : units) {
    const std::vector<int>& chain = key.first;
    const std::vector<int>& declared = key.second;
    bool computed = false;
    const std::vector<Combination>& combos =
        EvalChain(chain, chain.size(), start, end, slices, &index_cache,
                  &computed, &tally);
    if (metrics_on()) {
      // The first member pays for the chain's computation; every other
      // query (in this unit and later triggers) reuses the memo.
      bool charge_compute = computed;
      for (const TriggeredQuery* tq : unit.members) {
        obs::QuerySeries* s = SeriesForQuery(tq->query->id);
        if (s == nullptr) continue;
        (charge_compute ? s->slices_computed : s->slices_reused).Add();
        charge_compute = false;
      }
    }
    std::vector<size_t> perm(declared.size(), 0);
    for (size_t j = 0; j < declared.size(); ++j) {
      for (size_t i = 0; i < chain.size(); ++i) {
        if (chain[i] == declared[j]) perm[j] = i;
      }
    }
    for (const Combination& c : combos) {
      spe::Row row = c.parts[perm[0]];
      for (size_t j = 1; j < perm.size(); ++j) {
        row = spe::Row::Concat(row, c.parts[perm[j]]);
      }
      QuerySet shared = c.tags & unit.active_bits;
      ++tally.bitset_ops;
      if (shared.Any()) {
        out->EmitRecord(result_time, row, std::move(shared));
      }
      for (const auto& [slot, id] : unit.draining) {
        if (c.tags.Test(slot)) {
          spe::StreamElement el;
          el.kind = spe::ElementKind::kRecord;
          el.record.event_time = result_time;
          el.record.row = row;
          el.record.tags = QuerySet::Single(slot);
          el.record.channel = id;
          out->Emit(std::move(el));
        }
      }
    }
  }
  bitset_ops_.Add(tally.bitset_ops);
  chains_computed_.Add(tally.chains_computed);
  chains_reused_.Add(tally.chains_reused);
  // Reference mode: no cross-trigger sub-join sharing — the memo only
  // served this interval's evaluation.
  if (!share_arrangements()) ReleaseChainMemo();
}

void SharedMultiwayJoin::OnSlicesEvicted(const std::vector<int64_t>& indices) {
  if (indices.empty()) return;
  const int64_t max_evicted = indices.back();
  for (TupleArrangement& port : ports_) port.EvictThrough(max_evicted);
  for (auto it = chain_memo_.begin(); it != chain_memo_.end();) {
    if (it->second.min_slice <= max_evicted) {
      chain_memo_bytes_ -= std::min(chain_memo_bytes_, it->second.bytes);
      it = chain_memo_.erase(it);
    } else {
      ++it;
    }
  }
  RefreshArenaBytes();
}

void SharedMultiwayJoin::OnModeSwitch(StoreMode mode) {
  for (TupleArrangement& port : ports_) port.ConvertAll(mode);
}

void SharedMultiwayJoin::OnWatermarkTail(TimestampMs watermark,
                                         spe::Collector* out) {
  (void)watermark;
  (void)out;
  cost_model_.Tick();
}

void SharedMultiwayJoin::RebuildPlans() {
  plans_.clear();
  table().ForEach([&](const ActiveQuery& q) {
    if (q.desc.kind != QueryKind::kMultiJoin) return;
    Plan plan;
    plan.declared = DeclaredStreams(q.desc);
    if (const std::vector<int>* chain = registry_.ChainFor(q.slot)) {
      plan.chain = *chain;
    } else {
      plan.chain = cost_model_.Order(plan.declared);
    }
    plans_[q.slot] = std::move(plan);
  });
}

Status SharedMultiwayJoin::SnapshotState(spe::StateWriter* writer) {
  SerializeBase(writer);
  writer->WriteU64(ports_.size());
  for (TupleArrangement& port : ports_) port.Serialize(writer);
  registry_.Serialize(writer);
  cost_model_.Serialize(writer);
  writer->WriteU64(draining_plans_.size());
  for (const auto& [id, plan] : draining_plans_) {
    writer->WriteI64(id);
    writer->WriteU64(plan.chain.size());
    for (int s : plan.chain) writer->WriteI64(s);
    writer->WriteU64(plan.declared.size());
    for (int s : plan.declared) writer->WriteI64(s);
  }
  // The chain memo is a cache: recomputed on demand after restore.
  writer->WriteI64(chains_computed_.Get());
  writer->WriteI64(records_late_.Get());
  return Status::OK();
}

Status SharedMultiwayJoin::RestoreState(spe::StateReader* reader) {
  ASTREAM_RETURN_IF_ERROR(RestoreBase(reader));
  ReleaseChainMemo();
  const uint64_t num_ports = reader->ReadU64();
  if (num_ports != ports_.size()) {
    return Status::Internal("multiway snapshot port count mismatch");
  }
  for (TupleArrangement& port : ports_) {
    ASTREAM_RETURN_IF_ERROR(port.Restore(reader));
  }
  ASTREAM_RETURN_IF_ERROR(registry_.Restore(reader));
  ASTREAM_RETURN_IF_ERROR(cost_model_.Restore(reader));
  draining_plans_.clear();
  const uint64_t draining = reader->ReadU64();
  for (uint64_t i = 0; i < draining && reader->Ok(); ++i) {
    const QueryId id = reader->ReadI64();
    Plan plan;
    const uint64_t chain_len = reader->ReadU64();
    for (uint64_t k = 0; k < chain_len && reader->Ok(); ++k) {
      plan.chain.push_back(static_cast<int>(reader->ReadI64()));
    }
    const uint64_t declared_len = reader->ReadU64();
    for (uint64_t k = 0; k < declared_len && reader->Ok(); ++k) {
      plan.declared.push_back(static_cast<int>(reader->ReadI64()));
    }
    draining_plans_[id] = std::move(plan);
  }
  chains_computed_.Set(reader->ReadI64());
  records_late_.Set(reader->ReadI64());
  if (!reader->Ok()) return Status::Internal("bad multiway-join snapshot");
  RebuildPlans();
  RefreshArenaBytes();
  EnforceBudget();
  return Status::OK();
}

}  // namespace astream::core
