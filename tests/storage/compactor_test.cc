#include "storage/compactor.h"

#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "gtest/gtest.h"
#include "storage/run_file.h"
#include "storage/spill_space.h"

namespace astream::storage {
namespace {

struct Entry {
  int64_t key;
  std::string payload;
};

bool operator==(const Entry& a, const Entry& b) {
  return a.key == b.key && a.payload == b.payload;
}

SpilledRunPtr WriteRun(SpillSpace* space, const std::vector<Entry>& entries) {
  SpillWriter writer(space);
  for (const Entry& e : entries) {
    EXPECT_TRUE(writer
                    .Append(e.key,
                            reinterpret_cast<const uint8_t*>(e.payload.data()),
                            e.payload.size())
                    .ok());
  }
  auto run = writer.Finish();
  EXPECT_TRUE(run.ok()) << run.status().message();
  return run.ok() ? std::move(run).value() : nullptr;
}

std::vector<Entry> ReadAll(const SpilledRunPtr& run) {
  std::vector<Entry> out;
  SpillReader reader(run);
  int64_t key = 0;
  std::vector<uint8_t> payload;
  // A failed read throws SpillReadError, which fails the test.
  while (reader.Next(&key, &payload)) {
    out.push_back(Entry{key, std::string(payload.begin(), payload.end())});
  }
  return out;
}

/// The merge order the store's own reads use: (key, input index) — so the
/// compacted run must interleave ties in input order.
std::vector<Entry> ExpectedMerge(const std::vector<std::vector<Entry>>& runs) {
  std::vector<size_t> pos(runs.size(), 0);
  std::vector<Entry> out;
  for (;;) {
    int best = -1;
    for (size_t i = 0; i < runs.size(); ++i) {
      if (pos[i] >= runs[i].size()) continue;
      if (best < 0 || runs[i][pos[i]].key <
                          runs[static_cast<size_t>(best)]
                              [pos[static_cast<size_t>(best)]]
                                  .key) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) return out;
    out.push_back(runs[static_cast<size_t>(best)][pos[static_cast<size_t>(best)]++]);
  }
}

std::vector<std::vector<Entry>> TieHeavyInputs() {
  // Every run repeats keys {1, 2, 3, 7}; payloads encode (run, ordinal) so
  // order violations are visible.
  std::vector<std::vector<Entry>> runs;
  for (int r = 0; r < 4; ++r) {
    std::vector<Entry> run;
    int ordinal = 0;
    for (int64_t key : {1, 1, 2, 3, 7}) {
      run.push_back(Entry{key, "r" + std::to_string(r) + "." +
                                   std::to_string(ordinal++)});
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

TEST(CompactorTest, SyncFoldPreservesKeyAndTieOrder) {
  auto space = SpillSpace::Create("");
  ASSERT_TRUE(space.ok());
  const auto inputs = TieHeavyInputs();
  std::vector<SpilledRunPtr> runs;
  for (const auto& in : inputs) runs.push_back(WriteRun(space.value().get(), in));

  Compactor::Options opts;
  opts.sync = true;
  Compactor compactor(space.value().get(), opts);
  CompactionTicketPtr ticket = compactor.Submit(runs);
  ASSERT_EQ(ticket->state(), CompactionTicket::State::kDone);
  ASSERT_NE(ticket->output(), nullptr);

  const std::vector<Entry> got = ReadAll(ticket->output());
  const std::vector<Entry> want = ExpectedMerge(inputs);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "at " << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << "at " << i;
  }
  EXPECT_EQ(compactor.runs_compacted(), 4);
  EXPECT_EQ(compactor.jobs_failed(), 0);
}

TEST(CompactorTest, CompressedOutputRoundTrips) {
  auto space = SpillSpace::Create("");
  ASSERT_TRUE(space.ok());
  // Redundant payloads so the v2 output actually compresses.
  std::vector<std::vector<Entry>> inputs(3);
  for (int r = 0; r < 3; ++r) {
    for (int64_t k = 0; k < 200; ++k) {
      inputs[static_cast<size_t>(r)].push_back(
          Entry{k, std::string(64, static_cast<char>('a' + r))});
    }
  }
  std::vector<SpilledRunPtr> runs;
  for (const auto& in : inputs) runs.push_back(WriteRun(space.value().get(), in));

  SpillSpace::WriterOptions wo;
  wo.compress = true;
  space.value()->SetWriterOptions(wo);
  Compactor::Options opts;
  opts.sync = true;
  Compactor compactor(space.value().get(), opts);
  CompactionTicketPtr ticket = compactor.Submit(runs);
  ASSERT_EQ(ticket->state(), CompactionTicket::State::kDone);
  const SpilledRun& out = *ticket->output();
  EXPECT_LT(out.bytes(), out.raw_bytes());
  EXPECT_EQ(ReadAll(ticket->output()).size(), 600u);
}

TEST(CompactorTest, WorkerModeSettlesTicketOffThread) {
  auto space = SpillSpace::Create("");
  ASSERT_TRUE(space.ok());
  const auto inputs = TieHeavyInputs();
  std::vector<SpilledRunPtr> runs;
  for (const auto& in : inputs) runs.push_back(WriteRun(space.value().get(), in));

  Compactor compactor(space.value().get(), Compactor::Options{});
  compactor.Start();
  CompactionTicketPtr ticket = compactor.Submit(runs);
  // Stop() drains the queue before joining, so the ticket must be settled
  // afterwards — the lifecycle the job teardown relies on.
  compactor.Stop();
  ASSERT_EQ(ticket->state(), CompactionTicket::State::kDone);
  EXPECT_TRUE(ReadAll(ticket->output()) == ExpectedMerge(inputs));
}

TEST(CompactorTest, InjectedFailureKeepsInputsReadable) {
  auto space = SpillSpace::Create("");
  ASSERT_TRUE(space.ok());
  const auto inputs = TieHeavyInputs();
  std::vector<SpilledRunPtr> runs;
  for (const auto& in : inputs) runs.push_back(WriteRun(space.value().get(), in));
  const int64_t runs_before = space.value()->num_runs();

  fault::FaultInjector injector(5);
  fault::FaultInjector::Rule rule;
  rule.point = fault::FaultPoint::kCompaction;
  rule.action = fault::FaultAction::kFail;
  injector.AddRule(rule);
  fault::ScopedFaultInjection scoped(&injector);

  Compactor::Options opts;
  opts.sync = true;
  Compactor compactor(space.value().get(), opts);
  CompactionTicketPtr ticket = compactor.Submit(runs);
  EXPECT_EQ(ticket->state(), CompactionTicket::State::kFailed);
  EXPECT_EQ(compactor.jobs_failed(), 1);
  EXPECT_EQ(space.value()->num_runs(), runs_before);  // nothing adopted
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(ReadAll(runs[i]).size(), inputs[i].size());
  }
}

TEST(CompactorTest, InjectedCrashMidCompactionKeepsInputsReadable) {
  auto space = SpillSpace::Create("");
  ASSERT_TRUE(space.ok());
  const auto inputs = TieHeavyInputs();
  std::vector<SpilledRunPtr> runs;
  for (const auto& in : inputs) runs.push_back(WriteRun(space.value().get(), in));

  fault::FaultInjector injector(5);
  fault::FaultInjector::Rule rule;
  rule.point = fault::FaultPoint::kCompaction;
  rule.action = fault::FaultAction::kThrow;
  rule.after_hits = 1;  // crash at the pre-Finish check, mid-job
  injector.AddRule(rule);
  fault::ScopedFaultInjection scoped(&injector);

  Compactor::Options opts;
  opts.sync = true;
  Compactor compactor(space.value().get(), opts);
  CompactionTicketPtr ticket = compactor.Submit(runs);
  EXPECT_EQ(ticket->state(), CompactionTicket::State::kFailed);
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(ReadAll(runs[i]).size(), inputs[i].size());
  }
}

TEST(CompactorTest, FewerThanTwoInputsFailsImmediately) {
  auto space = SpillSpace::Create("");
  ASSERT_TRUE(space.ok());
  Compactor::Options opts;
  opts.sync = true;
  Compactor compactor(space.value().get(), opts);
  CompactionTicketPtr ticket = compactor.Submit({});
  EXPECT_EQ(ticket->state(), CompactionTicket::State::kFailed);
}

}  // namespace
}  // namespace astream::storage
