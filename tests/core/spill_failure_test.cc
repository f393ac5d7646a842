// Spilled state that cannot be read back fails the task — it never comes
// back as a shorter scan, a wrong changelog mask, or a checkpoint that
// lacks state — and a spill write that fails leaves the store resident.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/astream.h"
#include "core/cl_table.h"
#include "core/slice_store.h"
#include "fault/injector.h"
#include "harness/reference.h"
#include "harness/supervised_job.h"
#include "storage/spill_space.h"

namespace astream::core {
namespace {

namespace fs = std::filesystem;
using spe::Row;
using spe::Value;
using storage::SpillReadError;

std::unique_ptr<storage::SpillSpace> NewSpace(const std::string& dir = "",
                                              size_t block_bytes = 1024) {
  auto space = storage::SpillSpace::Create(dir);
  EXPECT_TRUE(space.ok()) << space.status().ToString();
  storage::SpillSpace::WriterOptions wo;
  wo.block_bytes = block_bytes;
  space.value()->SetWriterOptions(wo);
  return std::move(space).value();
}

// Overwrites every byte the segment file holds now.
void DamageSegment(const std::string& path) {
  const auto size = fs::file_size(path);
  ASSERT_GT(size, 0u);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  const std::string junk(size, '\x7f');
  f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
}

QuerySet Slots(int n) { return QuerySet::AllSet(static_cast<size_t>(n)); }

Row Tuple(Value key, Value v) { return Row(std::vector<Value>{key, v}); }

TupleStore SpilledTupleStore(storage::SpillSpace* space) {
  TupleStore store(StoreMode::kGrouped);
  store.BindSpill(space);
  for (int i = 0; i < 200; ++i) store.Insert(Tuple(i % 17, i), Slots(2));
  EXPECT_GT(store.SpillToDisk(), 0u);
  for (int i = 200; i < 220; ++i) store.Insert(Tuple(i % 17, i), Slots(2));
  return store;
}

TEST(SpillFailureTest, TupleStoreScansThrowOnDamagedRun) {
  auto space = NewSpace();
  TupleStore store = SpilledTupleStore(space.get());
  TupleStore other(StoreMode::kGrouped);
  for (int i = 0; i < 17; ++i) other.Insert(Tuple(i, -i), Slots(2));
  DamageSegment(space->segment().path());

  EXPECT_THROW(
      {
        auto stream = store.SortedScan();
        TupleStore::ScanEntry e;
        while (stream->Next(&e)) {
        }
      },
      SpillReadError);
  EXPECT_THROW(store.ForEach([](const Row&, const QuerySet&) {}),
               SpillReadError);
  spe::StateWriter checkpoint;
  EXPECT_THROW(store.Serialize(&checkpoint), SpillReadError);
  EXPECT_THROW(TupleStore::Join(store, other, Slots(2),
                                [](const Row&, const Row&, QuerySet) {}),
               SpillReadError);
}

// The probe path reads every block of the spilled side and checks it
// before it looks up a single key, so a damaged run fails the join even
// when none of its keys is on the resident side.
TEST(SpillFailureTest, ProbeThrowsOnDamagedRunWhoseKeysAllMiss) {
  auto space = NewSpace();
  TupleStore store = SpilledTupleStore(space.get());  // keys 0..16
  TupleStore other(StoreMode::kList);
  for (int i = 0; i < 17; ++i) other.Insert(Tuple(100 + i, -i), Slots(2));
  int emitted = 0;
  const TupleStore::JoinEmit count = [&](const Row&, const Row&, QuerySet) {
    ++emitted;
  };
  TupleStore::Join(store, other, Slots(2), count);
  TupleStore::Join(other, store, Slots(2), count);
  EXPECT_EQ(emitted, 0);

  DamageSegment(space->segment().path());
  EXPECT_THROW(TupleStore::Join(store, other, Slots(2), count),
               SpillReadError);
  EXPECT_THROW(TupleStore::Join(other, store, Slots(2), count),
               SpillReadError);
  EXPECT_EQ(emitted, 0);
}

TEST(SpillFailureTest, AggStoreMergedScanThrowsOnDamagedRun) {
  auto space = NewSpace();
  AggStore store;
  store.BindSpill(space.get());
  for (int i = 0; i < 300; ++i) store.Add(i % 50, Slots(3), i);
  ASSERT_GT(store.SpillToDisk(), 0u);
  store.Add(7, Slots(3), 1);
  DamageSegment(space->segment().path());

  EXPECT_THROW(
      store.ForEachGroupsMerged([](Value, const AggStore::Group*, size_t) {}),
      SpillReadError);
  spe::StateWriter checkpoint;
  EXPECT_THROW(store.Serialize(&checkpoint), SpillReadError);
}

TEST(SpillFailureTest, ClTableThrowsOnDamagedDelta) {
  auto space = NewSpace();
  ClTable table;
  for (int64_t i = 0; i < 6; ++i) {
    QuerySet delta = Slots(4);
    if (i % 2 == 1) delta.Reset(static_cast<int>(i % 4));
    table.AddSlice(i, delta, 4);
  }
  ASSERT_GT(table.SpillBelow(3, space.get()), 0u);
  ASSERT_EQ(table.NumSpilledDeltas(), 4u);
  DamageSegment(space->segment().path());

  spe::StateWriter checkpoint;
  EXPECT_THROW(table.Serialize(&checkpoint), SpillReadError);
  EXPECT_THROW(table.Mask(5, 0), SpillReadError);
}

TEST(SpillFailureTest, FailedMidRunBlockKeepsStoreResident) {
  auto space = NewSpace("", /*block_bytes=*/256);
  TupleStore store(StoreMode::kList);
  store.BindSpill(space.get());
  for (int i = 0; i < 100; ++i) store.Insert(Tuple(i % 13, i), Slots(2));
  std::vector<std::string> before;
  store.ForEach([&](const Row& row, const QuerySet& tags) {
    before.push_back(row.ToString() + tags.ToString(16));
  });

  fault::FaultInjector injector(9);
  fault::FaultInjector::Rule rule;
  rule.point = fault::FaultPoint::kStorageWrite;
  rule.action = fault::FaultAction::kFail;
  rule.after_hits = 2;  // the third block of the run fails
  injector.AddRule(rule);
  {
    fault::ScopedFaultInjection scoped(&injector);
    EXPECT_EQ(store.SpillToDisk(), 0u);
  }
  EXPECT_EQ(injector.fires(fault::FaultPoint::kStorageWrite), 1);
  EXPECT_FALSE(store.HasSpill());
  EXPECT_EQ(store.NumResidentTuples(), 100u);
  EXPECT_EQ(space->segment().live_bytes(), 0u);
  EXPECT_EQ(space->num_runs(), 0);

  // The retry spills the same tuples, and they read back unchanged.
  EXPECT_GT(store.SpillToDisk(), 0u);
  EXPECT_TRUE(store.HasSpill());
  std::vector<std::string> after;
  store.ForEach([&](const Row& row, const QuerySet& tags) {
    after.push_back(row.ToString() + tags.ToString(16));
  });
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(before, after);
}

Row WideRow(int i) {
  std::vector<Value> values(64, i);
  values[0] = i / 2;  // rows 2k (A) and 2k+1 (B) join
  values[1] = i % 100;
  return Row(std::move(values));
}

constexpr int kPhaseOneRows = 3000;
constexpr TimestampMs kFinalWatermark = 10000;

AStreamJob::Options JoinOptions(Clock* clock, bool threaded,
                                int64_t budget_bytes,
                                const std::string& spill_dir) {
  AStreamJob::Options options;
  options.topology = AStreamJob::TopologyKind::kJoin;
  options.parallelism = 1;
  options.threaded = threaded;
  options.clock = clock;
  options.storage.memory_budget_bytes = budget_bytes;
  options.storage.spill_dir = spill_dir;
  // No folds: a fold finishing after the damage could rewrite the
  // damaged runs into an intact one.
  options.storage.compaction = false;
  return options;
}

QueryDescriptor JoinQuery() {
  QueryDescriptor d;
  d.kind = QueryKind::kJoin;
  d.window = spe::WindowSpec::Sliding(2000, 1000);
  d.select_a = {Predicate{1, CmpOp::kLt, 1000}};
  return d;
}

// Phase 1 pushes rows with no watermark: nothing triggers or expires, so
// every run spilled now is still unread when the final watermark fires
// the windows.
template <typename Job>
void PushPhaseOne(Job* job, ManualClock* clock) {
  for (int i = 0; i < kPhaseOneRows; ++i) {
    clock->SetMs(1 + i);
    if (i % 2 == 0) {
      job->Push(0, 1 + i, WideRow(i));
    } else {
      job->Push(1, 1 + i, WideRow(i));
    }
  }
}

// Waits until `job` holds a spilled run, then damages its segment. (The
// space's counters are atomics; a metrics snapshot would read operator
// counters the task thread is writing.)
void DamageOnceSpilled(AStreamJob* job) {
  ASSERT_NE(job->spill_space(), nullptr);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (job->spill_space()->num_runs() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(job->spill_space()->num_runs(), 0);
  DamageSegment(job->spill_space()->segment().path());
}

// End to end: a threaded budgeted job spills, its segment is damaged, and
// the next trigger that reads the spilled slices fails the job. The old
// behaviour skipped the unreadable runs and finished "OK" with fewer
// outputs.
TEST(SpillFailureTest, DamagedSegmentFailsThreadedJob) {
  const fs::path dir =
      fs::temp_directory_path() / "astream_spill_failure_test";
  fs::remove_all(dir);
  ManualClock clock;
  auto job = std::move(AStreamJob::Create(JoinOptions(
                           &clock, /*threaded=*/true, 256 << 10,
                           dir.string())))
                 .value();
  ASSERT_TRUE(job->Start().ok());
  int64_t outputs = 0;
  job->SetResultCallback(
      [&](QueryId, const spe::Record&) { ++outputs; });
  ASSERT_TRUE(job->Submit(JoinQuery()).ok());
  clock.SetMs(0);
  job->Pump(true);
  PushPhaseOne(job.get(), &clock);
  DamageOnceSpilled(job.get());

  clock.SetMs(kFinalWatermark);
  job->PushWatermark(kFinalWatermark);
  const Status finish = job->FinishAndWait();
  EXPECT_FALSE(finish.ok()) << "job finished with " << outputs
                            << " outputs despite unreadable spilled state";
  job.reset();
  fs::remove_all(dir);
}

// The same damage under supervision: the failed incarnation is replaced
// by a fresh one (with a fresh segment) that replays the source log, and
// the outputs equal an unbudgeted run's.
TEST(SpillFailureTest, DamagedSegmentRecoversBySupervisedReplay) {
  ManualClock ref_clock;
  auto ref = std::move(AStreamJob::Create(JoinOptions(
                           &ref_clock, /*threaded=*/false, -1, "")))
                 .value();
  ASSERT_TRUE(ref->Start().ok());
  std::map<QueryId, harness::RowMultiset> want;
  ref->SetResultCallback([&](QueryId id, const spe::Record& record) {
    harness::AddToMultiset(&want[id], record.event_time, record.row);
  });
  ASSERT_TRUE(ref->Submit(JoinQuery()).ok());
  ref_clock.SetMs(0);
  ref->Pump(true);
  PushPhaseOne(ref.get(), &ref_clock);
  ref_clock.SetMs(kFinalWatermark);
  ref->PushWatermark(kFinalWatermark);
  ASSERT_TRUE(ref->FinishAndWait().ok());
  ASSERT_FALSE(want.empty());

  ManualClock clock;
  harness::SupervisedJob::Options options;
  options.job = JoinOptions(&clock, /*threaded=*/true, 256 << 10, "");
  options.pin_clock = [&clock](TimestampMs ms) { clock.SetMs(ms); };
  options.supervisor.backoff_initial_ms = 1;
  options.supervisor.backoff_max_ms = 8;
  harness::SupervisedJob job(options);
  ASSERT_TRUE(job.Start().ok());
  std::mutex mutex;
  std::map<QueryId, harness::RowMultiset> got;
  job.SetResultCallback([&](QueryId id, const spe::Record& record) {
    std::lock_guard<std::mutex> lock(mutex);
    harness::AddToMultiset(&got[id], record.event_time, record.row);
  });
  clock.SetMs(0);
  ASSERT_TRUE(job.Submit(JoinQuery()).ok());
  PushPhaseOne(&job, &clock);
  DamageOnceSpilled(job.job());

  clock.SetMs(kFinalWatermark);
  job.PushWatermark(kFinalWatermark);
  const Status finish = job.FinishAndWait();
  EXPECT_TRUE(finish.ok()) << finish.ToString();
  EXPECT_GE(job.recoveries(), 1);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace astream::core
