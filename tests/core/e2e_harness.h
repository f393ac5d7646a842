#ifndef ASTREAM_TESTS_CORE_E2E_HARNESS_H_
#define ASTREAM_TESTS_CORE_E2E_HARNESS_H_

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/astream.h"
#include "harness/reference.h"

namespace astream::core {

/// Deterministic end-to-end harness: drives an AStreamJob on the sync
/// runner with a manual clock, records every input event and query
/// lifecycle, and at the end compares each query's engine output against
/// the offline reference evaluator.
class E2EHarness {
 public:
  /// `mutate_options` (when set) runs on the assembled Options just before
  /// Create — the hook tests use to flip knobs the positional parameters
  /// don't cover (share_arrangements on/off, memory budgets, ...).
  explicit E2EHarness(
      AStreamJob::TopologyKind kind, int parallelism = 1,
      StoreMode initial_mode = StoreMode::kGrouped, bool adaptive = true,
      const std::function<void(AStreamJob::Options*)>& mutate_options = {}) {
    AStreamJob::Options options;
    options.topology = kind;
    options.parallelism = parallelism;
    options.threaded = false;
    options.clock = &clock_;
    options.session.batch_size = 1000;        // flush only via Pump(force)
    options.session.max_timeout_ms = 1 << 30; // never by timeout
    options.initial_mode = initial_mode;
    options.adaptive_mode = adaptive;
    if (mutate_options) mutate_options(&options);
    auto job = AStreamJob::Create(options);
    EXPECT_TRUE(job.ok()) << job.status().ToString();
    job_ = std::move(job).value();
    EXPECT_TRUE(job_->Start().ok());
    job_->SetResultCallback(
        [this](QueryId id, const spe::Record& record) {
          harness::AddToMultiset(&outputs_[id], record.event_time,
                                 record.row);
        });
  }

  /// Buffers a creation; becomes live at the next Flush.
  QueryId Submit(const QueryDescriptor& desc, TimestampMs at) {
    clock_.SetMs(at);
    auto id = job_->Submit(desc);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    pending_creates_.push_back(*id);
    pending_descs_[*id] = desc;
    return *id;
  }

  void Cancel(QueryId id, TimestampMs at) {
    clock_.SetMs(at);
    EXPECT_TRUE(job_->Cancel(id).ok());
    pending_deletes_.push_back(id);
  }

  /// Flushes the batched requests as one changelog stamped just after
  /// `at`; records lifecycles for the reference comparison.
  void Flush(TimestampMs at) {
    clock_.SetMs(at);
    if (job_->Pump(true) == 0) return;
    const TimestampMs marker_time = job_->session().last_marker_time();
    for (QueryId id : pending_creates_) {
      lifecycles_[id] = harness::QueryLifecycle{pending_descs_[id],
                                                marker_time, kMaxTimestamp};
    }
    for (QueryId id : pending_deletes_) {
      auto it = lifecycles_.find(id);
      if (it != lifecycles_.end()) it->second.deleted_at = marker_time;
    }
    pending_creates_.clear();
    pending_deletes_.clear();
    pending_descs_.clear();
  }

  /// Convenience: submit + flush in one step. Returns the id; the query's
  /// creation time is strictly after `at`.
  QueryId Create(const QueryDescriptor& desc, TimestampMs at) {
    const QueryId id = Submit(desc, at);
    Flush(at);
    return id;
  }

  void Delete(QueryId id, TimestampMs at) {
    Cancel(id, at);
    Flush(at);
  }

  /// Pushes into `stream` (0..NumInputStreams()-1).
  void Push(int stream, TimestampMs t, spe::Row row) {
    PushImpl(stream, t, std::move(row));
  }

  void Watermark(TimestampMs t) {
    clock_.SetMs(t);
    job_->PushWatermark(t);
  }

  /// Ends the stream and verifies every query against the reference.
  void FinishAndVerify() {
    job_->FinishAndWait();
    for (const auto& [id, lifecycle] : lifecycles_) {
      const harness::RowMultiset expected =
          harness::EvaluateReference(lifecycle, events_);
      const harness::RowMultiset& actual = outputs_[id];
      EXPECT_EQ(actual, expected)
          << "query " << id << " (" << lifecycle.desc.ToString()
          << ", created " << lifecycle.created_at << ", deleted "
          << lifecycle.deleted_at << "): engine produced "
          << CountRows(actual) << " rows, reference "
          << CountRows(expected);
    }
  }

  AStreamJob* job() { return job_.get(); }
  const std::map<QueryId, harness::RowMultiset>& outputs() const {
    return outputs_;
  }
  const std::vector<harness::InputEvent>& events() const { return events_; }
  std::map<QueryId, harness::QueryLifecycle>& lifecycles() {
    return lifecycles_;
  }

  static int64_t CountRows(const harness::RowMultiset& m) {
    int64_t n = 0;
    for (const auto& [row, count] : m) n += count;
    return n;
  }

 private:
  void PushImpl(int stream, TimestampMs t, spe::Row row) {
    // Mirror the facade's marker clamp so the recorded event matches what
    // the engine actually processed.
    const TimestampMs effective =
        std::max(t, job_->session().last_marker_time());
    events_.push_back(harness::InputEvent{stream, effective, row});
    job_->Push(stream, t, std::move(row));
  }

  ManualClock clock_;
  std::unique_ptr<AStreamJob> job_;
  std::map<QueryId, harness::RowMultiset> outputs_;
  std::vector<harness::InputEvent> events_;
  std::map<QueryId, harness::QueryLifecycle> lifecycles_;
  std::vector<QueryId> pending_creates_;
  std::vector<QueryId> pending_deletes_;
  std::map<QueryId, QueryDescriptor> pending_descs_;
};

}  // namespace astream::core

#endif  // ASTREAM_TESTS_CORE_E2E_HARNESS_H_
