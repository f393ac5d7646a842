#ifndef ASTREAM_HARNESS_SOURCE_LOG_H_
#define ASTREAM_HARNESS_SOURCE_LOG_H_

#include <cstdint>
#include <vector>

#include "core/query.h"

namespace astream::harness {

/// A durable, replayable input log — the stand-in for the paper's message
/// bus (Kafka): AStream's exactly-once story (Sec. 3.3) requires that the
/// input stream can be replayed from a logged offset after a failure.
///
/// Beyond data records the log also captures the *control-plane* timeline
/// (query submits/cancels and checkpoint triggers) so a supervised
/// recovery can replay ad-hoc query churn byte-identically: re-submitted
/// queries get the same ids (the restored session's id counter is
/// deterministic) and changelog markers reproduce their original times
/// (entries carry the wall-clock time to re-pin a ManualClock to).
class SourceLog {
 public:
  struct Entry {
    enum Kind {
      kRecord,
      kWatermark,
      kSubmit,      // an accepted ad-hoc query submission
      kCancel,      // an accepted cancellation
      kCheckpoint,  // a triggered checkpoint barrier
    } kind = kRecord;
    int stream = 0;  // kRecord: the input stream it was pushed into
    TimestampMs time = 0;
    spe::Row row;
    // Control-plane fields (kSubmit/kCancel/kCheckpoint).
    TimestampMs wall_ms = 0;      // wall clock of the original call
    core::QueryDescriptor desc;   // kSubmit
    core::QueryId query_id = -1;  // kSubmit (assigned id) / kCancel
    int64_t checkpoint_id = 0;    // kCheckpoint
    int64_t offset = 0;           // kCheckpoint: log end offset at barrier
  };

  void LogRecord(int stream, TimestampMs time, spe::Row row) {
    Entry e;
    e.kind = Entry::kRecord;
    e.stream = stream;
    e.time = time;
    e.row = std::move(row);
    entries_.push_back(std::move(e));
  }
  void LogWatermark(TimestampMs watermark) {
    Entry e;
    e.kind = Entry::kWatermark;
    e.time = watermark;
    entries_.push_back(std::move(e));
  }
  void LogSubmit(TimestampMs wall_ms, const core::QueryDescriptor& desc,
                 core::QueryId id) {
    Entry e;
    e.kind = Entry::kSubmit;
    e.wall_ms = wall_ms;
    e.desc = desc;
    e.query_id = id;
    entries_.push_back(std::move(e));
  }
  void LogCancel(TimestampMs wall_ms, core::QueryId id) {
    Entry e;
    e.kind = Entry::kCancel;
    e.wall_ms = wall_ms;
    e.query_id = id;
    entries_.push_back(std::move(e));
  }
  void LogCheckpoint(TimestampMs wall_ms, int64_t checkpoint_id,
                     int64_t offset) {
    Entry e;
    e.kind = Entry::kCheckpoint;
    e.wall_ms = wall_ms;
    e.checkpoint_id = checkpoint_id;
    e.offset = offset;
    entries_.push_back(std::move(e));
  }

  /// Entry at an absolute offset in [first_offset(), EndOffset()).
  const Entry& At(int64_t offset) const {
    return entries_[static_cast<size_t>(offset - truncated_)];
  }

  /// Current end offset (total entries ever logged; absolute).
  int64_t EndOffset() const {
    return truncated_ + static_cast<int64_t>(entries_.size());
  }

  /// Drops entries below the given offset (safe once a checkpoint at or
  /// beyond it completed — Kafka retention equivalent). Offsets remain
  /// absolute.
  void TruncateBelow(int64_t offset) {
    const int64_t drop = offset - truncated_;
    if (drop <= 0) return;
    entries_.erase(entries_.begin(), entries_.begin() + drop);
    truncated_ = offset;
  }

  int64_t first_offset() const { return truncated_; }

  /// Aligns an *empty* log so its next entry gets absolute offset
  /// `offset`. A job restored from a checkpoint taken by a previous
  /// process (or handed over from another shard) resumes at that
  /// checkpoint's source offset; without this, the fresh log would
  /// restart at 0 and a later recovery would replay from the old large
  /// offset — past every newly logged entry. No-op when the log already
  /// starts at or beyond `offset`.
  void StartAt(int64_t offset) {
    if (!entries_.empty() || offset <= truncated_) return;
    truncated_ = offset;
  }

 private:
  std::vector<Entry> entries_;  // index i holds offset truncated_ + i
  int64_t truncated_ = 0;
};

}  // namespace astream::harness

#endif  // ASTREAM_HARNESS_SOURCE_LOG_H_
