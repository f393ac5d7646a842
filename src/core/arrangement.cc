#include "core/arrangement.h"

#include <algorithm>

namespace astream::core {

TupleStore& TupleArrangement::StoreAt(int64_t version, StoreMode mode) {
  auto it = stores_.find(version);
  if (it == stores_.end()) {
    it = stores_.emplace(version, TupleStore(mode)).first;
    it->second.BindSpill(spill_);
    it->second.BindCompactor(compactor_);
  }
  return it->second;
}

const TupleStore* TupleArrangement::AtVersion(int64_t version) const {
  auto it = stores_.find(version);
  return it == stores_.end() ? nullptr : &it->second;
}

void TupleArrangement::ConvertAll(StoreMode mode) {
  for (auto& [version, store] : stores_) store.ConvertTo(mode);
}

void TupleArrangement::EvictThrough(int64_t max_version) {
  auto it = stores_.begin();
  while (it != stores_.end() && it->first <= max_version) {
    it = stores_.erase(it);
  }
  auto rit = reads_.begin();
  while (rit != reads_.end() && rit->first <= max_version) {
    rit = reads_.erase(rit);
  }
}

int64_t TupleArrangement::ColdestResident() const {
  for (const auto& [version, store] : stores_) {
    if (store.NumResidentTuples() > 0) return version;
  }
  return kNoVersion;
}

int64_t TupleArrangement::PickVictim(int64_t* reads) const {
  *reads = 0;
  if (!access_aware_) return ColdestResident();
  int64_t best = kNoVersion;
  int64_t best_reads = 0;
  for (const auto& [version, store] : stores_) {
    if (store.NumResidentTuples() == 0) continue;
    auto rit = reads_.find(version);
    const int64_t r = rit == reads_.end() ? 0 : rit->second;
    // Fewest reads wins; ties to the oldest (the map iterates ascending,
    // so the first minimum seen is the oldest).
    if (best == kNoVersion || r < best_reads) {
      best = version;
      best_reads = r;
    }
  }
  *reads = best_reads;
  return best;
}

size_t TupleArrangement::SpillAt(int64_t version) {
  auto it = stores_.find(version);
  return it == stores_.end() ? 0 : it->second.SpillToDisk();
}

void TupleArrangement::AddBytes(int64_t* arena_bytes, size_t* resident_bytes,
                                int64_t* coldest_resident) const {
  for (const auto& [version, store] : stores_) {
    *arena_bytes += static_cast<int64_t>(store.ArenaBytes());
    *resident_bytes += store.ResidentBytes();
    if (store.NumResidentTuples() > 0 && version < *coldest_resident) {
      *coldest_resident = version;
    }
  }
}

void TupleArrangement::Serialize(spe::StateWriter* writer) const {
  writer->WriteU64(stores_.size());
  for (const auto& [version, store] : stores_) {
    writer->WriteI64(version);
    store.Serialize(writer);
  }
}

Status TupleArrangement::Restore(spe::StateReader* reader) {
  stores_.clear();
  const uint64_t n = reader->ReadU64();
  for (uint64_t i = 0; i < n && reader->Ok(); ++i) {
    const int64_t version = reader->ReadI64();
    auto it = stores_.emplace(version, TupleStore::Deserialize(reader));
    it.first->second.BindSpill(spill_);
    it.first->second.BindCompactor(compactor_);
  }
  return reader->Ok() ? Status::OK()
                      : Status::Internal("bad TupleArrangement snapshot");
}

const std::vector<JoinedTuple>* JoinMemo::Find(int64_t a, int64_t b) {
  auto it = memo_.find(std::make_pair(a, b));
  if (it == memo_.end()) return nullptr;
  ++hits_;
  return &it->second;
}

std::vector<JoinedTuple>& JoinMemo::Emplace(int64_t a, int64_t b) {
  ++misses_;
  return memo_[std::make_pair(a, b)];
}

void JoinMemo::EvictThrough(int64_t max_version) {
  auto it = memo_.begin();
  while (it != memo_.end()) {
    if (it->first.first <= max_version || it->first.second <= max_version) {
      it = memo_.erase(it);
    } else {
      ++it;
    }
  }
}

AggStore& AggArrangement::StoreAt(int64_t version) {
  auto it = stores_.find(version);
  if (it == stores_.end()) {
    it = stores_.emplace(version, AggStore()).first;
    it->second.BindSpill(spill_);
    it->second.BindCompactor(compactor_);
  }
  return it->second;
}

const AggStore* AggArrangement::AtVersion(int64_t version) const {
  auto it = stores_.find(version);
  return it == stores_.end() ? nullptr : &it->second;
}

namespace {

using Composed = AggArrangement::Composed;

/// Rough heap footprint of a composed view (memo accounting only): 64 B
/// per key plus each group and its tag words. The per-key 64 B overstates
/// the flat layout's 16 B on purpose: changing it moves the points at
/// which budgeted jobs release the memo and spill.
size_t EstimateBytes(const Composed& c) {
  size_t bytes = 64 * c.NumKeys();
  for (const AggStore::Group& g : c.groups) {
    bytes += sizeof(AggStore::Group) + g.tags.NumWords() * 8;
  }
  return bytes;
}

/// A level-0 block: the store's partials laid out once, sorted by key.
std::shared_ptr<Composed> LayOut(const AggStore& store) {
  struct Entry {
    spe::Value key;
    size_t first;
    size_t count;
  };
  std::vector<Entry> entries;
  std::vector<AggStore::Group> scratch;
  store.ForEachGroupsMerged(
      [&](spe::Value key, const AggStore::Group* groups, size_t n) {
        entries.push_back(Entry{key, scratch.size(), n});
        scratch.insert(scratch.end(), groups, groups + n);
      });
  // A store without runs iterates its hash map in no order.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  auto out = std::make_shared<Composed>();
  out->keys.reserve(entries.size());
  out->offsets.reserve(entries.size() + 1);
  out->groups.reserve(scratch.size());
  for (const Entry& e : entries) {
    out->keys.push_back(e.key);
    for (size_t j = e.first; j < e.first + e.count; ++j) {
      out->groups.push_back(std::move(scratch[j]));
    }
    out->offsets.push_back(out->groups.size());
  }
  return out;
}

/// One input of a merge: a view and the bridge mask ANDed onto its tags
/// (nullptr when the view already ends at the merged span's end).
struct MergeInput {
  const Composed* view;
  const QuerySet* bridge;
};

/// Folds (tags, acc) into the groups of the key being built, which start
/// at `first`: one group per distinct tag set, the first seen kept.
void FoldInto(std::vector<AggStore::Group>* groups, size_t first,
              QuerySet tags, const spe::Accumulator& acc) {
  for (size_t i = first; i < groups->size(); ++i) {
    AggStore::Group& g = (*groups)[i];
    if (g.tags == tags) {
      g.acc.Merge(acc);
      return;
    }
  }
  groups->push_back(AggStore::Group{std::move(tags), acc});
}

/// One linear, key-ordered merge of `inputs`. Under each key the inputs'
/// groups fold in input order. Groups whose tags die under their bridge
/// are dropped — their queries must not see data from before their slot
/// was reassigned — and a key left without groups is dropped with them.
std::shared_ptr<Composed> Merge(const std::vector<MergeInput>& inputs) {
  auto out = std::make_shared<Composed>();
  size_t max_keys = 0;
  size_t max_groups = 0;
  for (const MergeInput& in : inputs) {
    max_keys += in.view->NumKeys();
    max_groups += in.view->groups.size();
  }
  out->keys.reserve(max_keys);
  out->offsets.reserve(max_keys + 1);
  out->groups.reserve(max_groups);
  std::vector<size_t> pos(inputs.size(), 0);
  for (;;) {
    // Smallest key at the inputs' heads (few inputs: a linear scan).
    bool more = false;
    spe::Value key = 0;
    for (size_t i = 0; i < inputs.size(); ++i) {
      const Composed& v = *inputs[i].view;
      if (pos[i] == v.NumKeys()) continue;
      if (!more || v.keys[pos[i]] < key) key = v.keys[pos[i]];
      more = true;
    }
    if (!more) break;
    const size_t first = out->groups.size();
    for (size_t i = 0; i < inputs.size(); ++i) {
      const Composed& v = *inputs[i].view;
      if (pos[i] == v.NumKeys() || v.keys[pos[i]] != key) continue;
      const std::span<const AggStore::Group> src = v.GroupsOf(pos[i]++);
      const QuerySet* bridge = inputs[i].bridge;
      if (bridge == nullptr && out->groups.size() == first) {
        // A view's groups under one key already have distinct tags.
        out->groups.insert(out->groups.end(), src.begin(), src.end());
        continue;
      }
      for (const AggStore::Group& g : src) {
        if (bridge == nullptr) {
          FoldInto(&out->groups, first, g.tags, g.acc);
        } else if (g.tags.Intersects(*bridge)) {
          FoldInto(&out->groups, first, g.tags & *bridge, g.acc);
        }
      }
    }
    if (out->groups.size() == first) continue;
    out->keys.push_back(key);
    out->offsets.push_back(out->groups.size());
  }
  return out;
}

}  // namespace

std::shared_ptr<const AggArrangement::Composed> AggArrangement::Block(
    int level, int64_t base, ClTable* cl, bool memoize) {
  const bool cache = memoize && level > 0;
  if (cache) {
    auto it = memo_.find(BlockKey{level, base});
    if (it != memo_.end()) {
      memo_hits_.Add(1);
      return it->second;
    }
    memo_misses_.Add(1);
  }
  std::shared_ptr<Composed> out;
  if (level == 0) {
    auto it = stores_.find(base);
    out = it == stores_.end() ? std::make_shared<Composed>()
                              : LayOut(it->second);
  } else {
    const int64_t half = int64_t{1} << (level - 1);
    auto left = Block(level - 1, base, cl, memoize);
    auto right = Block(level - 1, base + half, cl, memoize);
    // Right child already masked to this block's end; bridge the left
    // child across. Copy the mask: the reference dies at the next ClTable
    // call.
    const QuerySet bridge = cl->Mask(base + 2 * half - 1, base + half - 1);
    out = Merge({MergeInput{right.get(), nullptr},
                 MergeInput{left.get(), &bridge}});
  }
  if (cache) {
    memo_bytes_.Add(static_cast<int64_t>(EstimateBytes(*out)));
    memo_.emplace(BlockKey{level, base}, out);
  }
  return out;
}

std::shared_ptr<const AggArrangement::Composed> AggArrangement::Compose(
    const std::vector<SliceInfo>& slices, ClTable* cl, bool memoize) {
  if (slices.empty()) return std::make_shared<const Composed>();
  const int64_t last = slices.back().index;
  std::vector<std::shared_ptr<const Composed>> blocks;
  // bridges[b] carries blocks[b] to the span end; the last block needs
  // none.
  std::vector<QuerySet> bridges;
  int64_t i = slices.front().index;
  while (i <= last) {
    // Largest aligned power-of-two block starting at i that fits in the
    // span (canonical greedy decomposition: identical triggers always
    // produce identical blocks, maximizing memo reuse).
    int level = 0;
    while (level < kMaxLevel &&
           i % (int64_t{1} << (level + 1)) == 0 &&
           i + (int64_t{1} << (level + 1)) - 1 <= last) {
      ++level;
    }
    const int64_t block_end = i + (int64_t{1} << level) - 1;
    blocks.push_back(Block(level, i, cl, memoize));
    if (block_end != last) bridges.push_back(cl->Mask(last, block_end));
    i = block_end + 1;
  }
  if (blocks.size() == 1) return blocks.front();
  std::vector<MergeInput> inputs;
  inputs.reserve(blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    inputs.push_back(MergeInput{
        blocks[b].get(), b < bridges.size() ? &bridges[b] : nullptr});
  }
  return Merge(inputs);
}

void AggArrangement::EvictThrough(int64_t max_version) {
  auto it = stores_.begin();
  while (it != stores_.end() && it->first <= max_version) {
    it = stores_.erase(it);
  }
  auto rit = reads_.begin();
  while (rit != reads_.end() && rit->first <= max_version) {
    rit = reads_.erase(rit);
  }
  // Eviction is prefix-only, so any block overlapping an evicted slice
  // starts at or below max_version. Keyed (level, base), so matches are
  // not contiguous — scan the whole memo.
  auto mit = memo_.begin();
  while (mit != memo_.end()) {
    if (mit->first.second <= max_version) {
      memo_bytes_.Add(-std::min(
          memo_bytes_.Get(),
          static_cast<int64_t>(EstimateBytes(*mit->second))));
      mit = memo_.erase(mit);
    } else {
      ++mit;
    }
  }
}

size_t AggArrangement::ReleaseMemo() {
  const auto released = static_cast<size_t>(memo_bytes_.Get());
  memo_.clear();
  memo_bytes_.Set(0);
  return released;
}

int64_t AggArrangement::ColdestResident() const {
  for (const auto& [version, store] : stores_) {
    if (store.NumKeys() > 0) return version;
  }
  return kNoVersion;
}

int64_t AggArrangement::PickVictim(int64_t* reads) const {
  *reads = 0;
  if (!access_aware_) return ColdestResident();
  int64_t best = kNoVersion;
  int64_t best_reads = 0;
  for (const auto& [version, store] : stores_) {
    if (store.NumKeys() == 0) continue;
    auto rit = reads_.find(version);
    const int64_t r = rit == reads_.end() ? 0 : rit->second;
    if (best == kNoVersion || r < best_reads) {
      best = version;
      best_reads = r;
    }
  }
  *reads = best_reads;
  return best;
}

size_t AggArrangement::SpillAt(int64_t version) {
  auto it = stores_.find(version);
  return it == stores_.end() ? 0 : it->second.SpillToDisk();
}

void AggArrangement::AddBytes(int64_t* arena_bytes, size_t* resident_bytes,
                              int64_t* coldest_resident) const {
  for (const auto& [version, store] : stores_) {
    *arena_bytes += static_cast<int64_t>(store.ArenaBytes());
    *resident_bytes += store.ResidentBytes();
    if (store.NumKeys() > 0 && version < *coldest_resident) {
      *coldest_resident = version;
    }
  }
  *resident_bytes += memo_bytes();
}

void AggArrangement::Serialize(spe::StateWriter* writer) const {
  writer->WriteU64(stores_.size());
  for (const auto& [version, store] : stores_) {
    writer->WriteI64(version);
    store.Serialize(writer);
  }
}

Status AggArrangement::Restore(spe::StateReader* reader) {
  stores_.clear();
  ReleaseMemo();
  const uint64_t n = reader->ReadU64();
  for (uint64_t i = 0; i < n && reader->Ok(); ++i) {
    const int64_t version = reader->ReadI64();
    auto it = stores_.emplace(version, AggStore::Deserialize(reader));
    it.first->second.BindSpill(spill_);
    it.first->second.BindCompactor(compactor_);
  }
  return reader->Ok() ? Status::OK()
                      : Status::Internal("bad AggArrangement snapshot");
}

}  // namespace astream::core
