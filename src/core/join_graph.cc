#include "core/join_graph.h"

#include <algorithm>

namespace astream::core {

std::vector<int> JoinCostModel::Order(std::vector<int> streams) const {
  std::sort(streams.begin(), streams.end());
  if (!WarmedUp()) return streams;  // static shape fallback
  std::stable_sort(streams.begin(), streams.end(), [&](int a, int b) {
    return rate_[a] < rate_[b];
  });
  return streams;
}

void JoinCostModel::Serialize(spe::StateWriter* writer) const {
  writer->WriteU64(pending_.size());
  for (size_t s = 0; s < pending_.size(); ++s) {
    writer->WriteI64(pending_[s]);
    // Rates are advisory; fixed-point keeps the snapshot byte-stable.
    writer->WriteI64(static_cast<int64_t>(rate_[s] * 1024.0));
  }
  writer->WriteI64(total_observed_);
}

Status JoinCostModel::Restore(spe::StateReader* reader) {
  const uint64_t n = reader->ReadU64();
  pending_.assign(n, 0);
  rate_.assign(n, 0.0);
  for (uint64_t s = 0; s < n && reader->Ok(); ++s) {
    pending_[s] = reader->ReadI64();
    rate_[s] = static_cast<double>(reader->ReadI64()) / 1024.0;
  }
  total_observed_ = reader->ReadI64();
  if (!reader->Ok()) return Status::Internal("bad join cost model snapshot");
  return Status::OK();
}

const std::vector<int>& SubJoinRegistry::AcquireFor(
    int slot, const std::vector<int>& cost_order) {
  // Find the longest materialized chain whose stream set is contained in
  // this query's. Iterating the ordered map and taking strict improvements
  // keeps ties deterministic (lexicographically smallest wins).
  const std::vector<int>* best = nullptr;
  for (const auto& [prefix, refs] : nodes_) {
    (void)refs;
    if (best != nullptr && prefix.size() <= best->size()) continue;
    if (prefix.size() > cost_order.size()) continue;
    const bool subset = std::all_of(
        prefix.begin(), prefix.end(), [&](int s) {
          return std::find(cost_order.begin(), cost_order.end(), s) !=
                 cost_order.end();
        });
    if (subset) best = &prefix;
  }

  std::vector<int> chain;
  if (best != nullptr) {
    chain = *best;
    attached_.Add(1);
  } else {
    built_.Add(1);
  }
  for (int s : cost_order) {
    if (std::find(chain.begin(), chain.end(), s) == chain.end()) {
      chain.push_back(s);
    }
  }

  for (size_t len = 2; len <= chain.size(); ++len) {
    ++nodes_[std::vector<int>(chain.begin(), chain.begin() + len)];
  }
  num_nodes_.Set(static_cast<int64_t>(nodes_.size()));
  return by_slot_[slot] = std::move(chain);
}

void SubJoinRegistry::Release(int slot) {
  auto it = by_slot_.find(slot);
  if (it == by_slot_.end()) return;
  const std::vector<int>& chain = it->second;
  for (size_t len = 2; len <= chain.size(); ++len) {
    std::vector<int> prefix(chain.begin(), chain.begin() + len);
    auto node = nodes_.find(prefix);
    if (node != nodes_.end() && --node->second <= 0) nodes_.erase(node);
  }
  by_slot_.erase(it);
  num_nodes_.Set(static_cast<int64_t>(nodes_.size()));
}

void SubJoinRegistry::Serialize(spe::StateWriter* writer) const {
  writer->WriteU64(by_slot_.size());
  for (const auto& [slot, chain] : by_slot_) {
    writer->WriteI64(slot);
    writer->WriteU64(chain.size());
    for (int s : chain) writer->WriteI64(s);
  }
  writer->WriteI64(built_.Get());
  writer->WriteI64(attached_.Get());
}

Status SubJoinRegistry::Restore(spe::StateReader* reader) {
  nodes_.clear();
  by_slot_.clear();
  const uint64_t slots = reader->ReadU64();
  for (uint64_t i = 0; i < slots && reader->Ok(); ++i) {
    const int slot = static_cast<int>(reader->ReadI64());
    std::vector<int> chain;
    const uint64_t n = reader->ReadU64();
    for (uint64_t k = 0; k < n && reader->Ok(); ++k) {
      chain.push_back(static_cast<int>(reader->ReadI64()));
    }
    for (size_t len = 2; len <= chain.size(); ++len) {
      ++nodes_[std::vector<int>(chain.begin(), chain.begin() + len)];
    }
    by_slot_[slot] = std::move(chain);
  }
  num_nodes_.Set(static_cast<int64_t>(nodes_.size()));
  built_.Set(reader->ReadI64());
  attached_.Set(reader->ReadI64());
  if (!reader->Ok()) return Status::Internal("bad sub-join registry snapshot");
  return Status::OK();
}

}  // namespace astream::core
