#ifndef ASTREAM_COMMON_OWNED_COUNTER_H_
#define ASTREAM_COMMON_OWNED_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace astream {

/// A statistic one thread writes and any thread may read: an operator's
/// task thread updates it while the control thread snapshots it
/// (CollectStats, MetricsSnapshot). An update is a relaxed load plus a
/// relaxed store — no read-modify-write, so it compiles to plain moves —
/// which is correct only with a single writer. Hot loops count into a
/// local and Add once per batch or trigger.
class OwnedCounter {
 public:
  void Add(int64_t delta) { Set(Get() + delta); }
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t Get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

}  // namespace astream

#endif  // ASTREAM_COMMON_OWNED_COUNTER_H_
