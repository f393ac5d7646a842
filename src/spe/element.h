#ifndef ASTREAM_SPE_ELEMENT_H_
#define ASTREAM_SPE_ELEMENT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "common/clock.h"
#include "spe/row.h"

namespace astream::spe {

/// A data tuple in flight: event time, payload row, and an optional tag-set
/// column. The substrate treats tags opaquely; the AStream layer uses them
/// as query-sets (Sec. 2.1.1).
struct Record {
  TimestampMs event_time = 0;
  Row row;
  DynamicBitset tags;
  /// Output channel id for demultiplexing at sinks (Flink side-output
  /// equivalent). The AStream router stamps the target query id here;
  /// -1 while unrouted.
  int64_t channel = -1;
  /// Checkpoint epoch of a routed output: the id of the last checkpoint
  /// barrier the router aligned before emitting this record (0 before the
  /// first barrier). Recovery uses it to prune the output-dedup store —
  /// outputs older than the restored checkpoint can never be regenerated.
  int64_t epoch = 0;
};

/// Marker payloads are defined by higher layers (e.g. the AStream changelog,
/// Sec. 2.1.2). The substrate only aligns and forwards them.
struct MarkerPayload {
  virtual ~MarkerPayload() = default;
};

/// Categories of control markers woven into the stream.
enum class MarkerKind : uint8_t {
  /// AStream query changelog (create/delete batch).
  kChangelog,
  /// Checkpoint barrier (exactly-once snapshots, Sec. 3.3).
  kCheckpointBarrier,
  /// Data-structure switch hint for slice stores (Sec. 3.2.3).
  kModeSwitch,
};

/// A control marker. Markers are broadcast to every operator instance and
/// aligned on multi-input operators (blocking, Flink style): an operator
/// processes marker epoch e only after receiving it from all upstream
/// senders, so every record processed before it has event time < `time`.
struct ControlMarker {
  MarkerKind kind = MarkerKind::kChangelog;
  /// Strictly increasing per kind; used for alignment.
  int64_t epoch = 0;
  /// Event time at which the marker takes effect.
  TimestampMs time = 0;
  std::shared_ptr<const MarkerPayload> payload;
};

/// Discriminator for StreamElement. kDone is a runtime-internal signal: a
/// sender has finished and will emit nothing further.
enum class ElementKind : uint8_t { kRecord, kWatermark, kMarker, kDone };

/// One unit flowing through a channel: a record, a watermark, or a control
/// marker. A plain struct rather than std::variant keeps the hot path
/// simple and branch-predictable.
struct StreamElement {
  ElementKind kind = ElementKind::kRecord;
  Record record;                         // kind == kRecord
  TimestampMs watermark = kMinTimestamp; // kind == kWatermark
  ControlMarker marker;                  // kind == kMarker

  static StreamElement MakeRecord(TimestampMs event_time, Row row,
                                  DynamicBitset tags = {}) {
    StreamElement e;
    e.kind = ElementKind::kRecord;
    e.record.event_time = event_time;
    e.record.row = std::move(row);
    e.record.tags = std::move(tags);
    return e;
  }

  static StreamElement MakeWatermark(TimestampMs wm) {
    StreamElement e;
    e.kind = ElementKind::kWatermark;
    e.watermark = wm;
    return e;
  }

  static StreamElement MakeMarker(ControlMarker marker) {
    StreamElement e;
    e.kind = ElementKind::kMarker;
    e.marker = std::move(marker);
    return e;
  }

  static StreamElement MakeDone() {
    StreamElement e;
    e.kind = ElementKind::kDone;
    return e;
  }
};

/// A run of stream elements that travels the data plane as one unit: one
/// channel push, one lock acquisition, and one operator dispatch per batch
/// instead of per element. Control elements (watermarks, markers, done) are
/// batch boundaries — producers flush buffered records before emitting one,
/// so marker alignment semantics are identical to element-at-a-time.
///
/// Small batches (the common case for control elements and low-rate
/// streams) live in inline storage; larger batches spill to the heap while
/// keeping the elements contiguous, so consumers can always iterate
/// `data()..data()+size()`. Records keep their own tag bitsets — the
/// inline-word fast path of DynamicBitset already makes per-record tags
/// allocation-free for up to 64 concurrent queries.
///
/// Move-only: batches are handed off, never duplicated. Broadcast edges
/// copy individual StreamElements into per-target batches instead.
class ElementBatch {
 public:
  static constexpr size_t kInlineCapacity = 4;

  ElementBatch() = default;

  // Moves touch only the live inline elements: a one-record batch moves
  // one element, not kInlineCapacity.
  ElementBatch(ElementBatch&& other) noexcept
      : inline_size_(other.inline_size_),
        overflow_(std::move(other.overflow_)) {
    for (size_t i = 0; i < inline_size_; ++i) {
      inline_[i] = std::move(other.inline_[i]);
    }
    other.inline_size_ = 0;
    other.overflow_.clear();
  }

  ElementBatch& operator=(ElementBatch&& other) noexcept {
    if (this != &other) {
      for (size_t i = 0; i < other.inline_size_; ++i) {
        inline_[i] = std::move(other.inline_[i]);
      }
      for (size_t i = other.inline_size_; i < inline_size_; ++i) {
        inline_[i] = StreamElement{};
      }
      inline_size_ = other.inline_size_;
      overflow_ = std::move(other.overflow_);
      other.inline_size_ = 0;
      other.overflow_.clear();
    }
    return *this;
  }

  ElementBatch(const ElementBatch&) = delete;
  ElementBatch& operator=(const ElementBatch&) = delete;

  void Add(StreamElement element) {
    if (overflow_.empty()) {
      if (inline_size_ < kInlineCapacity) {
        inline_[inline_size_++] = std::move(element);
        return;
      }
      Spill();
    }
    overflow_.push_back(std::move(element));
  }

  size_t size() const {
    return overflow_.empty() ? inline_size_ : overflow_.size();
  }
  bool empty() const { return size() == 0; }

  StreamElement* data() {
    return overflow_.empty() ? inline_.data() : overflow_.data();
  }
  const StreamElement* data() const {
    return overflow_.empty() ? inline_.data() : overflow_.data();
  }

  StreamElement& operator[](size_t i) { return data()[i]; }
  const StreamElement& operator[](size_t i) const { return data()[i]; }

  StreamElement* begin() { return data(); }
  StreamElement* end() { return data() + size(); }
  const StreamElement* begin() const { return data(); }
  const StreamElement* end() const { return data() + size(); }

  /// Empties the batch; heap capacity is kept for reuse.
  void Clear() {
    for (size_t i = 0; i < inline_size_; ++i) inline_[i] = StreamElement{};
    inline_size_ = 0;
    overflow_.clear();
  }

 private:
  void Spill() {
    overflow_.reserve(kInlineCapacity * 4);
    for (size_t i = 0; i < inline_size_; ++i) {
      overflow_.push_back(std::move(inline_[i]));
    }
    inline_size_ = 0;
  }

  std::array<StreamElement, kInlineCapacity> inline_;
  size_t inline_size_ = 0;
  // Non-empty iff the batch spilled; then it holds ALL elements.
  std::vector<StreamElement> overflow_;
};

}  // namespace astream::spe

#endif  // ASTREAM_SPE_ELEMENT_H_
