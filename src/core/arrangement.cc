#include "core/arrangement.h"

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

/// Folds (tags, acc) into `groups` with the one-group-per-tag-set rule.
void FoldInto(std::vector<AggStore::Group>* groups, QuerySet tags,
              const spe::Accumulator& acc) {
  for (AggStore::Group& g : *groups) {
    if (g.tags == tags) {
      g.acc.Merge(acc);
      return;
    }
  }
  groups->push_back(AggStore::Group{std::move(tags), acc});
}

/// Rough heap footprint of a composed view (memo accounting only).
size_t EstimateBytes(const AggArrangement::Composed& c) {
  size_t bytes = 0;
  for (const auto& [key, groups] : c) {
    bytes += 64;  // map node
    for (const AggStore::Group& g : groups) {
      bytes += sizeof(AggStore::Group) + g.tags.NumWords() * 8;
    }
  }
  return bytes;
}

/// Merges `src` (masked to its own span end) into `dst` under `bridge`
/// (the CL mask from dst's span end back to src's). Groups whose tags die
/// under the bridge are dropped — their queries must not see data from
/// before their slot was reassigned.
void MergeMasked(AggArrangement::Composed* dst,
                 const AggArrangement::Composed& src,
                 const QuerySet& bridge) {
  for (const auto& [key, groups] : src) {
    std::vector<AggStore::Group>* out = nullptr;
    for (const AggStore::Group& g : groups) {
      QuerySet tags = g.tags & bridge;
      if (tags.None()) continue;
      if (out == nullptr) out = &(*dst)[key];
      FoldInto(out, std::move(tags), g.acc);
    }
  }
}

/// Merge without a bridge (the block already ends at the span end).
void MergeUnmasked(AggArrangement::Composed* dst,
                   const AggArrangement::Composed& src) {
  for (const auto& [key, groups] : src) {
    auto& out = (*dst)[key];
    for (const AggStore::Group& g : groups) FoldInto(&out, g.tags, g.acc);
  }
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
  auto out = std::make_shared<Composed>();
  if (level == 0) {
    auto it = stores_.find(base);
    if (it != stores_.end()) {
      it->second.ForEachGroupsMerged(
          [&](spe::Value key, const Group* groups, size_t n) {
            (*out)[key].assign(groups, groups + n);
          });
    }
  } else {
    const int64_t half = int64_t{1} << (level - 1);
    auto left = Block(level - 1, base, cl, memoize);
    auto right = Block(level - 1, base + half, cl, memoize);
    // Right child already masked to this block's end; bridge the left
    // child across. Copy the mask: the reference dies at the next ClTable
    // call.
    const QuerySet bridge = cl->Mask(base + 2 * half - 1, base + half - 1);
    *out = *right;
    MergeMasked(out.get(), *left, bridge);
  }
  if (cache) {
    memo_bytes_.Add(static_cast<int64_t>(EstimateBytes(*out)));
    memo_.emplace(BlockKey{level, base}, out);
  }
  return out;
}

AggArrangement::Composed AggArrangement::Compose(
    const std::vector<SliceInfo>& slices, ClTable* cl, bool memoize) {
  Composed out;
  if (slices.empty()) return out;
  const int64_t last = slices.back().index;
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
    auto block = Block(level, i, cl, memoize);
    if (block_end == last) {
      if (out.empty()) {
        out = *block;  // common case: the span is one aligned block
      } else {
        MergeUnmasked(&out, *block);
      }
    } else {
      const QuerySet bridge = cl->Mask(last, block_end);
      MergeMasked(&out, *block, bridge);
    }
    i = block_end + 1;
  }
  return out;
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
