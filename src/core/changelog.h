#ifndef ASTREAM_CORE_CHANGELOG_H_
#define ASTREAM_CORE_CHANGELOG_H_

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/query.h"
#include "spe/element.h"

namespace astream::core {

/// A query placed into a slot at some event time.
struct QueryActivation {
  QueryId id = -1;
  int slot = -1;
  TimestampMs created_at = 0;
  QueryDescriptor desc;
};

/// A query removed from its slot.
struct QueryDeactivation {
  QueryId id = -1;
  int slot = -1;
};

/// The changelog (Sec. 2.1.2): one batch of query creations and deletions,
/// woven into the data streams as a control marker. Carries the
/// changelog-set: bit i is SET iff slot i is unchanged by this batch, and
/// UNSET iff the slot's query was deleted and/or a new query was placed
/// there. `num_slots` is the slot-universe size after applying the batch.
struct Changelog : public spe::MarkerPayload {
  int64_t epoch = 0;
  TimestampMs time = 0;
  std::vector<QueryActivation> created;
  std::vector<QueryDeactivation> deleted;
  QuerySet changelog_set;
  size_t num_slots = 0;

  /// Builds the changelog-set from created/deleted and `num_slots`.
  void ComputeChangelogSet();

  std::string ToString() const;

  void Serialize(spe::StateWriter* writer) const;
  static Changelog Deserialize(spe::StateReader* reader);

  /// Wraps this changelog (already heap-allocated) into a control marker.
  static spe::ControlMarker MakeMarker(std::shared_ptr<const Changelog> log);

  /// Extracts the payload from a changelog marker (nullptr otherwise).
  static const Changelog* FromMarker(const spe::ControlMarker& marker);
};

/// One live query as tracked inside every shared operator.
struct ActiveQuery {
  QueryId id = -1;
  int slot = -1;
  TimestampMs created_at = 0;
  QueryDescriptor desc;
};

/// Thrown by a shared operator whose query table cannot apply a changelog
/// (a deletion of an absent query, a creation in an occupied slot, a
/// replayed epoch). The table then disagrees with the session and later
/// outputs could reach the wrong queries, so the task fails the way an
/// operator exception does: the threaded runner poisons, and a supervised
/// job recovers from its last checkpoint.
class ChangelogApplyError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The slot-indexed table of active queries that each shared operator
/// maintains (Sec. 3.1: "Each operator in AStream keeps a list of active
/// queries. Once active queries are updated via changelog, operators change
/// their computation logic accordingly."). Deterministic: the table is a
/// pure function of the changelog sequence, so replays reproduce it.
class ActiveQueryTable {
 public:
  /// Applies one changelog batch (deletions first, then creations).
  /// Returns InvalidArgument on slot/id mismatches.
  Status Apply(const Changelog& log);
  /// Apply for operators: a failure throws ChangelogApplyError.
  void ApplyOrThrow(const Changelog& log);

  /// The query in `slot`, or nullptr if the slot is free.
  const ActiveQuery* QueryAt(int slot) const;

  /// The active query with this id, or nullptr.
  const ActiveQuery* FindById(QueryId id) const;

  size_t num_slots() const { return slots_.size(); }
  size_t num_active() const { return num_active_; }
  int64_t last_epoch() const { return last_epoch_; }

  /// Calls fn(const ActiveQuery&) for every active query in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& q : slots_) {
      if (q.has_value()) fn(*q);
    }
  }

  /// Query-set with the bits of all active queries satisfying `pred`.
  template <typename Pred>
  QuerySet SlotsWhere(Pred&& pred) const {
    QuerySet set(slots_.size());
    for (const auto& q : slots_) {
      if (q.has_value() && pred(*q)) set.Set(q->slot);
    }
    return set;
  }

  void Serialize(spe::StateWriter* writer) const;
  Status Restore(spe::StateReader* reader);

 private:
  std::vector<std::optional<ActiveQuery>> slots_;
  size_t num_active_ = 0;
  int64_t last_epoch_ = -1;
};

}  // namespace astream::core

#endif  // ASTREAM_CORE_CHANGELOG_H_
