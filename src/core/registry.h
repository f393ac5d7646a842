#ifndef ASTREAM_CORE_REGISTRY_H_
#define ASTREAM_CORE_REGISTRY_H_

#include <map>
#include <optional>
#include <set>

#include "common/owned_counter.h"
#include "core/changelog.h"
#include "core/window_math.h"
#include "spe/window.h"

namespace astream::core {

/// Session-side slot bookkeeping. Reuses slots of deleted queries so
/// query-sets stay compact (Fig. 3c); grows the universe only when no free
/// slot exists. Lowest free slot first, which keeps the assignment
/// deterministic and replayable.
class SlotAllocator {
 public:
  /// Returns the slot for a new query (lowest free, or a fresh one).
  int Acquire() {
    if (!free_slots_.empty()) {
      const int slot = *free_slots_.begin();
      free_slots_.erase(free_slots_.begin());
      return slot;
    }
    return num_slots_++;
  }

  /// Releases a slot for reuse.
  void Release(int slot) { free_slots_.insert(slot); }

  /// Current universe size (highest ever slot + 1).
  size_t num_slots() const { return static_cast<size_t>(num_slots_); }
  size_t num_free() const { return free_slots_.size(); }

 private:
  int num_slots_ = 0;
  std::set<int> free_slots_;
};

/// A factor lattice: the edge set { t : t ≡ anchor (mod period) }.
struct FactorWindow {
  TimestampMs anchor = 0;  // in [0, period)
  TimestampMs period = 0;

  bool operator<(const FactorWindow& o) const {
    return period != o.period ? period < o.period : anchor < o.anchor;
  }
  bool operator==(const FactorWindow& o) const {
    return anchor == o.anchor && period == o.period;
  }
};

/// Factor-window planning (DESIGN.md §12, after Wu et al., PAPERS.md).
///
/// A time window (length, slide) anchored at `origin` has every start edge
/// (origin + k*slide) and every end edge (origin + length + k*slide) on
/// the lattice { t ≡ origin (mod g) } with g = gcd(length, slide), since g
/// divides both slide and length. Registering the lattice instead of the
/// per-query edge generators lets every query whose spec is composable
/// from a compatible factor drive slicing through ONE shared edge source:
/// with F distinct factors the slicer's edge union is O(F), not
/// O(queries), and all those queries' windows tile exactly onto the same
/// shared factor slices.
///
/// Cost model: the lattice is at most slide/g times denser than the
/// query's own edge union. A rewrite is accepted only when 2*g >= slide
/// (density blow-up <= 1.5x, e.g. a 45s/10s window: g=5); pathological
/// specs like 7s/3s (g=1, 3x denser) keep their exact per-query edges.
/// All decisions are pure functions of changelog-applied (origin, spec)
/// values plus deterministic ordered-map iteration, so replay, restore
/// and every shard make identical choices.
class FactorRegistry {
 public:
  /// A snapshot of the registry's counters (any thread may take one).
  struct Stats {
    /// Queries that registered a fresh factor lattice.
    int64_t rewrites = 0;
    /// Queries attached to an already-registered compatible lattice.
    int64_t reuses = 0;
    /// Queries that kept exact per-query edges (cost bound failed).
    int64_t fallbacks = 0;
  };

  /// The query's own GCD-derived factor, or nullopt when the cost bound
  /// rejects the rewrite.
  static std::optional<FactorWindow> ChooseFactor(
      TimestampMs origin, const spe::WindowSpec& spec) {
    if (!spec.IsTimeWindow()) return std::nullopt;
    const TimestampMs g = WindowGcd(spec.length, spec.slide);
    if (g <= 0 || 2 * g < spec.slide) return std::nullopt;
    return FactorWindow{FloorMod(origin, g), g};
  }

  /// Registers `slot`'s factor. Prefers the coarsest already-registered
  /// lattice the query can ride (period f' dividing g, congruent anchor,
  /// still within the cost bound); otherwise registers the query's own GCD
  /// factor. Returns nullopt (fallback) when no lattice passes the bound —
  /// the caller must then track the query's exact edges itself.
  std::optional<FactorWindow> AcquireFor(int slot, TimestampMs origin,
                                         const spe::WindowSpec& spec) {
    const auto own = ChooseFactor(origin, spec);
    if (!own.has_value()) {
      fallbacks_.Add(1);
      return std::nullopt;
    }
    // Coarsest compatible existing lattice (map is period-ascending, so
    // the last match wins deterministically).
    std::optional<FactorWindow> best;
    for (const auto& [fw, refs] : lattices_) {
      if (fw.period > own->period) break;
      if (own->period % fw.period != 0) continue;
      if (FloorMod(own->anchor, fw.period) != fw.anchor) continue;
      if (2 * fw.period < spec.slide) continue;
      best = fw;
    }
    const bool reused = best.has_value();
    const FactorWindow chosen = reused ? *best : *own;
    ++lattices_[chosen];
    by_slot_[slot] = chosen;
    (reused ? reuses_ : rewrites_).Add(1);
    return chosen;
  }

  /// Drops `slot`'s registration (no-op for fallback slots). Already
  /// materialized slice boundaries stay valid; the lattice just stops
  /// generating future edges once its last rider is gone.
  void Release(int slot) {
    auto it = by_slot_.find(slot);
    if (it == by_slot_.end()) return;
    auto lit = lattices_.find(it->second);
    if (lit != lattices_.end() && --lit->second == 0) lattices_.erase(lit);
    by_slot_.erase(it);
  }

  template <typename Fn>
  void ForEachLattice(Fn&& fn) const {
    for (const auto& [fw, refs] : lattices_) fn(fw.anchor, fw.period);
  }

  /// The lattice `slot` rides, if any.
  std::optional<FactorWindow> FactorOf(int slot) const {
    auto it = by_slot_.find(slot);
    if (it == by_slot_.end()) return std::nullopt;
    return it->second;
  }

  size_t NumLattices() const { return lattices_.size(); }
  size_t NumRegistered() const { return by_slot_.size(); }
  Stats stats() const {
    return Stats{rewrites_.Get(), reuses_.Get(), fallbacks_.Get()};
  }

  void Serialize(spe::StateWriter* writer) const {
    writer->WriteU64(by_slot_.size());
    for (const auto& [slot, fw] : by_slot_) {
      writer->WriteI64(slot);
      writer->WriteI64(fw.anchor);
      writer->WriteI64(fw.period);
    }
    writer->WriteI64(rewrites_.Get());
    writer->WriteI64(reuses_.Get());
    writer->WriteI64(fallbacks_.Get());
  }

  Status Restore(spe::StateReader* reader) {
    lattices_.clear();
    by_slot_.clear();
    const uint64_t n = reader->ReadU64();
    for (uint64_t i = 0; i < n && reader->Ok(); ++i) {
      const int slot = static_cast<int>(reader->ReadI64());
      FactorWindow fw;
      fw.anchor = reader->ReadI64();
      fw.period = reader->ReadI64();
      by_slot_[slot] = fw;
      ++lattices_[fw];
    }
    rewrites_.Set(reader->ReadI64());
    reuses_.Set(reader->ReadI64());
    fallbacks_.Set(reader->ReadI64());
    return reader->Ok() ? Status::OK()
                        : Status::Internal("bad FactorRegistry snapshot");
  }

 private:
  std::map<FactorWindow, int> lattices_;  // -> refcount
  std::map<int, FactorWindow> by_slot_;
  OwnedCounter rewrites_;
  OwnedCounter reuses_;
  OwnedCounter fallbacks_;
};

}  // namespace astream::core

#endif  // ASTREAM_CORE_REGISTRY_H_
