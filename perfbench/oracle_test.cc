// Pins each workload's reference pass to the offline oracle
// (harness::EvaluateReference) on a small seeded script, so the in-run
// reference that gates every measured pass is itself checked.

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <thread>

#include "harness/reference.h"
#include "perfbench/pass.h"

namespace astream::perfbench {
namespace {

/// Rebuilds the run offline: every stored tuple, every query's lifetime
/// in changelog marker times, and every query's results.
class Recorder : public PassObserver {
 public:
  void OnPush(int stream, TimestampMs time, const spe::Row& row) override {
    events.push_back(harness::InputEvent{stream, time, row});
  }
  void OnChangelog(
      const std::vector<std::pair<core::QueryId, core::QueryDescriptor>>&
          created,
      const std::vector<core::QueryId>& cancelled,
      TimestampMs marker_time) override {
    for (const auto& [id, desc] : created) {
      lifecycles[id] = harness::QueryLifecycle{desc, marker_time,
                                               kMaxTimestamp};
    }
    for (core::QueryId id : cancelled) lifecycles[id].deleted_at = marker_time;
  }
  void OnResult(core::QueryId id, const spe::Record& record) override {
    std::lock_guard<std::mutex> lock(mu);
    harness::AddToMultiset(&outputs[id], record.event_time, record.row);
  }

  std::vector<harness::InputEvent> events;
  std::map<core::QueryId, harness::QueryLifecycle> lifecycles;
  std::mutex mu;
  std::map<core::QueryId, harness::RowMultiset> outputs;
};

int64_t Rows(const harness::RowMultiset& set) {
  int64_t n = 0;
  for (const auto& [row, count] : set) n += count;
  return n;
}

class OracleTest : public ::testing::TestWithParam<const char*> {
 protected:
  PassOptions SmallPass(Deployment deployment) {
    PassOptions options;
    // Warm-up plus three churn points: every workload cancels and
    // replaces queries inside the script.
    EXPECT_TRUE(MakeWorkload(GetParam(), 1, &options.spec));
    const int64_t tuples =
        options.spec.event_rate * options.spec.churn_every_ms * 4 / 1000;
    EXPECT_TRUE(MakeWorkload(GetParam(), tuples, &options.spec));
    options.seed = 3;
    options.deployment = deployment;
    return options;
  }
};

TEST_P(OracleTest, ReferencePassMatchesOfflineOracle) {
  Recorder recorder;
  PassOptions options = SmallPass(Deployment::kReference);
  options.observer = &recorder;
  const PassResult result = RunPass(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.failed, 0);
  ASSERT_GT(recorder.lifecycles.size(),
            static_cast<size_t>(options.spec.fleet) + 2);
  int64_t total = 0;
  int cancelled = 0;
  for (const auto& [id, lifecycle] : recorder.lifecycles) {
    const harness::RowMultiset expected =
        harness::EvaluateReference(lifecycle, recorder.events);
    EXPECT_EQ(recorder.outputs[id], expected)
        << GetParam() << " query " << id << " ("
        << lifecycle.desc.ToString() << ", created " << lifecycle.created_at
        << ", deleted " << lifecycle.deleted_at << "): engine "
        << Rows(recorder.outputs[id]) << " rows, oracle " << Rows(expected);
    total += Rows(expected);
    if (lifecycle.deleted_at != kMaxTimestamp) ++cancelled;
  }
  EXPECT_GT(cancelled, 2);
  EXPECT_GT(total, 0);
  EXPECT_EQ(total, result.outputs);
}

TEST_P(OracleTest, MeasuredDeploymentMatchesReference) {
  const PassOptions reference_options = SmallPass(Deployment::kReference);
  const PassOptions measured_options = SmallPass(Deployment::kMeasured);
  if (measured_options.spec.Threads() >
      static_cast<int>(std::thread::hardware_concurrency())) {
    GTEST_SKIP() << "needs " << measured_options.spec.Threads()
                 << " threads";
  }
  const PassResult reference = RunPass(reference_options);
  const PassResult measured = RunPass(measured_options);
  ASSERT_TRUE(reference.ok) << reference.error;
  ASSERT_TRUE(measured.ok) << measured.error;
  EXPECT_EQ(measured.failed, 0);
  EXPECT_EQ(measured.outputs, reference.outputs);
  EXPECT_EQ(measured.hash, reference.hash);
}

INSTANTIATE_TEST_SUITE_P(Workloads, OracleTest,
                         ::testing::Values("agg_churn", "join_sharded",
                                           "join_spill"));

}  // namespace
}  // namespace astream::perfbench
