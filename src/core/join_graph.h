#ifndef ASTREAM_CORE_JOIN_GRAPH_H_
#define ASTREAM_CORE_JOIN_GRAPH_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/owned_counter.h"
#include "common/status.h"
#include "spe/state.h"

namespace astream::core {

/// Join-graph planning for the shared multi-way join (DESIGN.md §15, after
/// Dossinger & Michel, PAPERS.md): a cost model that orders probe chains by
/// live per-stream rates, and a refcounted registry of materialized
/// sub-join chains so queries whose join graphs contain an
/// already-materialized sub-join attach to it instead of building their
/// own (the multi-way analogue of FactorRegistry::AcquireFor).

/// Per-stream insert-rate estimator feeding probe-order selection. The
/// operator reports per-port insert deltas from its ingress path; each
/// watermark folds the pending deltas into an EWMA. Until the model has
/// seen kWarmupInserts rows in total, Order() falls back to the static
/// shape (ascending stream id) so plans are deterministic from the first
/// submit.
class JoinCostModel {
 public:
  /// EWMA smoothing per fold (alpha) and the warm-up row threshold.
  static constexpr double kAlpha = 0.2;
  static constexpr int64_t kWarmupInserts = 1024;

  explicit JoinCostModel(int num_streams)
      : pending_(num_streams, 0), rate_(num_streams, 0.0) {}

  /// Ingress path: `count` rows arrived on `stream` since the last fold.
  void ObserveInserts(int stream, int64_t count) {
    pending_[stream] += count;
    total_observed_ += count;
  }

  /// Folds pending deltas into the per-stream EWMA (called per watermark,
  /// the operator's natural epoch).
  void Tick() {
    for (size_t s = 0; s < pending_.size(); ++s) {
      rate_[s] = kAlpha * static_cast<double>(pending_[s]) +
                 (1.0 - kAlpha) * rate_[s];
      pending_[s] = 0;
    }
  }

  bool WarmedUp() const { return total_observed_ >= kWarmupInserts; }
  double RateEstimate(int stream) const { return rate_[stream]; }
  int64_t total_observed() const { return total_observed_; }

  /// Probe order over `streams`: cheapest (lowest estimated rate) first,
  /// the classic smallest-relation-first heuristic; ties and the cold
  /// start resolve to ascending stream id. Chain order never changes which
  /// records a query emits (tags and key-equality are order-insensitive),
  /// only how much intermediate state the chain carries.
  std::vector<int> Order(std::vector<int> streams) const;

  void Serialize(spe::StateWriter* writer) const;
  Status Restore(spe::StateReader* reader);

 private:
  std::vector<int64_t> pending_;
  std::vector<double> rate_;
  int64_t total_observed_ = 0;
};

/// Refcounted registry of materialized sub-join chains (probe-order
/// prefixes of length >= 2). AcquireFor assigns a query slot its full
/// probe chain: it first looks for the longest already-materialized chain
/// whose stream set is contained in the query's, attaches to it
/// (refcounted), and extends it with the remaining streams in cost order.
/// Release (on cancel / de-sharing drain) decrements every prefix and
/// drops nodes at refcount zero. Like FactorRegistry, by_slot_ is the
/// serialized source of truth; nodes_ is rebuilt from it on restore.
class SubJoinRegistry {
 public:
  /// A snapshot of the registry's counters (any thread may take one).
  struct Stats {
    int64_t built = 0;     // chains that had to materialize a new sub-join
    int64_t attached = 0;  // chains that reused an existing sub-join prefix
  };

  /// Assigns `slot` a chain over exactly the streams of `cost_order`
  /// (cost_order = JoinCostModel::Order of the query's streams). Returns
  /// the chain: a shared prefix (if one exists) followed by the remaining
  /// streams in cost order.
  const std::vector<int>& AcquireFor(int slot, const std::vector<int>& cost_order);

  /// Releases slot's chain (query cancelled or de-shared).
  void Release(int slot);

  /// The chain assigned to `slot`, or nullptr.
  const std::vector<int>* ChainFor(int slot) const {
    auto it = by_slot_.find(slot);
    return it == by_slot_.end() ? nullptr : &it->second;
  }

  /// Refcount of a materialized sub-join node (0 when absent).
  int NodeRefs(const std::vector<int>& prefix) const {
    auto it = nodes_.find(prefix);
    return it == nodes_.end() ? 0 : it->second;
  }

  /// Any thread may read the node count while the task thread runs.
  size_t NumNodes() const { return static_cast<size_t>(num_nodes_.Get()); }
  size_t NumSlots() const { return by_slot_.size(); }
  Stats stats() const { return Stats{built_.Get(), attached_.Get()}; }

  void Serialize(spe::StateWriter* writer) const;
  Status Restore(spe::StateReader* reader);

 private:
  /// Materialized sub-join chain prefixes (length >= 2) -> refcount.
  std::map<std::vector<int>, int> nodes_;
  /// Deterministic slot -> full chain assignment (serialized).
  std::map<int, std::vector<int>> by_slot_;
  OwnedCounter built_;
  OwnedCounter attached_;
  OwnedCounter num_nodes_;  // nodes_.size(), published for readers
};

}  // namespace astream::core

#endif  // ASTREAM_CORE_JOIN_GRAPH_H_
