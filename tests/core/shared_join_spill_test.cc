// The budgeted binary join spills its oldest resident slice first, and
// reading spilled slices back leaves no per-scan trace events.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/astream.h"
#include "core/shared_join.h"
#include "obs/trace.h"
#include "storage/memory_governor.h"
#include "storage/spill_space.h"

namespace astream::core {
namespace {

using spe::Row;
using spe::Value;

class DiscardCollector : public spe::Collector {
 public:
  void Emit(spe::StreamElement) override { ++emitted; }
  void EmitRun(spe::RecordBatch& run) override {
    emitted += static_cast<int64_t>(run.size());
  }
  int64_t emitted = 0;
};

spe::ControlMarker CreateJoinQuery(QueryId id, TimestampMs time,
                                   spe::WindowSpec window) {
  auto log = std::make_shared<Changelog>();
  log->time = time;
  QueryActivation a;
  a.id = id;
  a.slot = 0;
  a.created_at = time;
  a.desc.kind = QueryKind::kJoin;
  a.desc.window = window;
  log->created.push_back(std::move(a));
  log->num_slots = 1;
  log->ComputeChangelogSet();
  return Changelog::MakeMarker(std::move(log));
}

/// Versions of `join`'s slices that hold tuples, oldest first, and which
/// of them hold spilled runs (per side).
struct SideView {
  std::vector<int64_t> versions;
  std::vector<bool> spilled;
};

SideView ViewSide(const SharedJoin& join, int port, int64_t max_version) {
  SideView view;
  for (int64_t v = 0; v <= max_version; ++v) {
    const TupleStore* store = join.side(port).AtVersion(v);
    if (store == nullptr || store->NumTuples() == 0) continue;
    view.versions.push_back(v);
    view.spilled.push_back(store->HasSpill());
  }
  return view;
}

// A sliding window re-reads each slice on every slide, so the oldest live
// slices carry the most trigger reads and the open slice none. A
// read-weighted victim is therefore the newest slice; the join spills
// the oldest resident slice of both sides instead, and counts no reads.
// Sparse rows fill the first five slices under budget while triggers
// read them; dense rows then push the job over it. Checked after every
// ingest step: the spilled slices of each side are always a prefix of
// its live slices, and both sides spill at the same slices.
TEST(SharedJoinSpillTest, SpillsOldestResidentSliceFirstUnderBudget) {
  auto space = std::move(storage::SpillSpace::Create("")).value();
  storage::MemoryGovernor governor(96 << 10, /*allow_spill=*/true);
  SharedOperatorConfig config;
  config.hosts = [](const ActiveQuery& q) {
    return q.desc.kind == QueryKind::kJoin;
  };
  config.adaptive_mode = false;
  config.governor = &governor;
  config.spill_space = space.get();
  config.access_aware_eviction = true;  // governs aggregation, not joins
  SharedJoin join(config);

  DiscardCollector out;
  join.OnMarker(CreateJoinQuery(1, 0, spe::WindowSpec::Sliding(4000, 1000)),
                &out);
  constexpr int64_t kMaxVersion = 64;
  int spill_checks = 0;
  TimestampMs step = 20;
  for (TimestampMs t = 0; t < 12000; t += step) {
    step = t < 5000 ? 20 : 2;
    for (int port = 0; port < 2; ++port) {
      spe::Record record;
      record.event_time = t;
      record.row = Row(std::vector<Value>(8, t / 10 % 16));
      record.tags = QuerySet::Single(0);
      join.ProcessRecord(port, std::move(record), &out);
    }
    if ((t + step) / 1000 != t / 1000) {
      join.OnWatermark((t / 1000 + 1) * 1000, &out);  // a slice closed
    }

    const SideView a = ViewSide(join, 0, kMaxVersion);
    const SideView b = ViewSide(join, 1, kMaxVersion);
    ASSERT_EQ(a.versions, b.versions) << "t=" << t;
    ASSERT_EQ(a.spilled, b.spilled) << "t=" << t;
    for (size_t i = 1; i < a.spilled.size(); ++i) {
      // No spilled slice is newer than a slice that never spilled.
      ASSERT_FALSE(a.spilled[i] && !a.spilled[i - 1])
          << "t=" << t << ": slice " << a.versions[i]
          << " spilled while older slice " << a.versions[i - 1]
          << " stayed resident";
    }
    if (a.spilled.size() > 1 && a.spilled.front() && !a.spilled.back()) {
      ++spill_checks;
    }
  }
  EXPECT_GT(out.emitted, 0);
  EXPECT_GT(space->total_spill_bytes(), 0);
  EXPECT_GT(spill_checks, 100) << "budget never split old from new slices";
}

// A budgeted join re-reads spilled slices thousands of times. Each scan is
// counted and timed in storage.reload_{ms,us}; the trace keeps the spill
// events and gets nothing per scan, so it stays as small as the job's
// lifecycle. The join adds nothing to storage.reload_saves.
TEST(SharedJoinSpillTest, ReloadScansLeaveNoTraceEvents) {
  ManualClock clock;
  AStreamJob::Options options;
  options.topology = AStreamJob::TopologyKind::kJoin;
  options.parallelism = 1;
  options.clock = &clock;
  options.session.batch_size = 1;
  options.storage.memory_budget_bytes = 256 << 10;
  options.storage.access_aware_eviction = true;
  auto job = std::move(AStreamJob::Create(options)).value();
  ASSERT_TRUE(job->Start().ok());
  for (int w = 1; w <= 3; ++w) {
    QueryDescriptor d;
    d.kind = QueryKind::kJoin;
    d.window = spe::WindowSpec::Sliding(400 * w, 100);
    ASSERT_TRUE(job->Submit(d).ok());
  }
  clock.SetMs(0);
  job->Pump(true);
  for (int i = 0; i < 12000; ++i) {
    const TimestampMs t = 1 + i / 2;
    clock.SetMs(t);
    std::vector<Value> values(32, i);
    values[0] = i % 64;
    job->Push(i % 2, t, Row(std::move(values)));
    if (i % 200 == 199) job->PushWatermark(t);
  }
  ASSERT_TRUE(job->FinishAndWait().ok());

  const obs::MetricsRegistry::Snapshot snap = job->MetricsSnapshot();
  const int64_t reloads = snap.histograms.at("storage.reload_us").count;
  const int64_t spills = snap.histograms.at("storage.spill_us").count;
  EXPECT_GT(reloads, 1000);
  int64_t spill_events = 0;
  int64_t other_events = 0;
  for (const obs::TraceEvent& e : job->trace().Events()) {
    (e.kind == obs::TraceEventKind::kSpill ? spill_events : other_events)++;
  }
  EXPECT_EQ(spill_events, spills);
  EXPECT_GT(spill_events, 0);
  // Submit, flush, ack and first result per query, and the finish.
  EXPECT_LT(other_events, 20);
  EXPECT_EQ(job->trace().dropped(), 0);
  EXPECT_EQ(job->CollectStats().reload_saves, 0);
}

}  // namespace
}  // namespace astream::core
