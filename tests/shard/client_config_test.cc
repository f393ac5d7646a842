#include "shard/client.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "core/job_config.h"
#include "spe/state.h"

namespace astream {
namespace {

using core::AStreamJob;
using core::CmpOp;
using core::Predicate;
using core::QueryDescriptor;
using core::QueryId;
using core::QueryKind;
using spe::Row;

JobConfig ValidBase() {
  JobConfig config;
  config.job.topology = AStreamJob::TopologyKind::kJoin;
  config.job.session.batch_size = 1;
  config.slots = 8;
  return config;
}

void ExpectRejected(JobConfig config, const std::string& needle) {
  const Result<JobConfig> validated = JobConfig::Validated(std::move(config));
  ASSERT_FALSE(validated.ok()) << "expected rejection mentioning " << needle;
  EXPECT_NE(validated.status().ToString().find(needle), std::string::npos)
      << validated.status().ToString();
}

TEST(JobConfigTest, ValidConfigPasses) {
  EXPECT_TRUE(JobConfig::Validated(ValidBase()).ok());
}

TEST(JobConfigTest, RejectsEveryInvalidKnob) {
  {
    JobConfig c = ValidBase();
    c.shards = 0;
    ExpectRejected(std::move(c), "shards");
  }
  {
    JobConfig c = ValidBase();
    c.shards = 4;
    c.slots = 3;
    ExpectRejected(std::move(c), "slots");
  }
  {
    JobConfig c = ValidBase();
    c.shard_threads = true;
    c.ingress_capacity = 100;  // not a power of two
    ExpectRejected(std::move(c), "ingress_capacity");
  }
  {
    JobConfig c = ValidBase();
    c.state_dir = "/tmp/anywhere";  // durable dir without supervision
    ExpectRejected(std::move(c), "supervised");
  }
  {
    spe::CheckpointStore store;
    JobConfig c = ValidBase();
    c.supervised = true;
    c.job.checkpoint_store = &store;
    ExpectRejected(std::move(c), "checkpoint_store");
  }
  {
    JobConfig c = ValidBase();
    c.supervisor.max_restart_attempts = 0;
    ExpectRejected(std::move(c), "max_restart_attempts");
  }
  {
    JobConfig c = ValidBase();
    c.job.parallelism = 0;
    ExpectRejected(std::move(c), "parallelism");
  }
  {
    JobConfig c = ValidBase();
    c.job.batch_size = 0;
    ExpectRejected(std::move(c), "batch_size");
  }
  {
    JobConfig c = ValidBase();
    c.job.max_join_stages = 0;
    ExpectRejected(std::move(c), "max_join_stages");
  }
  {
    JobConfig c = ValidBase();
    c.job.session.batch_size = 0;
    ExpectRejected(std::move(c), "session.batch_size");
  }
  {
    JobConfig c = ValidBase();
    c.job.checkpoint_retention = 0;
    ExpectRejected(std::move(c), "checkpoint_retention");
  }
  {
    JobConfig c = ValidBase();
    c.job.first_checkpoint_id = 0;
    ExpectRejected(std::move(c), "first_checkpoint_id");
  }
}

TEST(JobConfigTest, SharedValidatorGuardsAStreamJobCreate) {
  // AStreamJob::Create funnels through the same validator, so engine
  // knobs that used to slip through (e.g. batch_size = 0) now fail fast.
  AStreamJob::Options options;
  options.batch_size = 0;
  EXPECT_FALSE(AStreamJob::Create(options).ok());
  options.batch_size = 1;
  options.session.batch_size = 0;
  EXPECT_FALSE(AStreamJob::Create(options).ok());
}

TEST(JobConfigTest, BuilderSetsEveryKnob) {
  ManualClock clock;
  Result<JobConfig> built =
      JobConfigBuilder(AStreamJob::TopologyKind::kJoin)
          .Parallelism(2)
          .Threaded(true)
          .BatchSize(16)
          .SessionBatch(5, 250)
          .MaxJoinStages(2)
          .Clock(&clock)
          .MemoryBudget(1 << 20)
          .Shards(4)
          .Slots(16)
          .ShardThreads(true)
          .IngressCapacity(512)
          .Supervised(true)
          .StateDir("/tmp/astream_builder_test")
          .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const JobConfig& c = *built;
  EXPECT_EQ(c.job.topology, AStreamJob::TopologyKind::kJoin);
  EXPECT_EQ(c.job.parallelism, 2);
  EXPECT_TRUE(c.job.threaded);
  EXPECT_EQ(c.job.batch_size, 16u);
  EXPECT_EQ(c.job.session.batch_size, 5u);
  EXPECT_EQ(c.job.session.max_timeout_ms, 250);
  EXPECT_EQ(c.job.max_join_stages, 2);
  EXPECT_EQ(c.job.clock, &clock);
  EXPECT_EQ(c.job.storage.memory_budget_bytes, 1 << 20);
  EXPECT_EQ(c.shards, 4);
  EXPECT_EQ(c.slots, 16);
  EXPECT_TRUE(c.shard_threads);
  EXPECT_EQ(c.ingress_capacity, 512u);
  EXPECT_TRUE(c.supervised);
  EXPECT_EQ(c.state_dir, "/tmp/astream_builder_test");
}

TEST(JobConfigTest, BuilderRejectsEagerly) {
  EXPECT_FALSE(JobConfigBuilder().Shards(0).Build().ok());
  EXPECT_FALSE(JobConfigBuilder().Shards(8).Slots(4).Build().ok());
}

TEST(ClientTest, CreateRejectsInvalidConfig) {
  JobConfig config = ValidBase();
  config.shards = -1;
  EXPECT_FALSE(Client::Create(std::move(config)).ok());
}

TEST(ClientTest, MergedMetricsSumAcrossShards) {
  ManualClock clock;
  JobConfig config = ValidBase();
  config.job.clock = &clock;
  config.shards = 2;
  auto client = std::move(Client::Create(std::move(config))).value();
  ASSERT_TRUE(client->Start().ok());
  int delivered = 0;
  client->SetResultCallback(
      [&](QueryId, const spe::Record&) { ++delivered; });
  QueryDescriptor d;
  d.kind = QueryKind::kSelection;
  d.select_a = {Predicate{1, CmpOp::kGt, -1}};
  ASSERT_TRUE(client->Submit(d).ok());
  client->Pump(true);
  for (spe::Value key = 0; key < 40; ++key) {
    clock.SetMs(5 + key);
    client->Push(StreamId::kA, 5 + key, Row{key, key});
  }
  ASSERT_TRUE(client->FinishAndWait().ok());
  EXPECT_EQ(delivered, 40);

  // The merged snapshot is the per-shard sum, key by key.
  const auto merged = client->MetricsSnapshot();
  const auto s0 = client->router()->shard(0)->MetricsSnapshot();
  const auto s1 = client->router()->shard(1)->MetricsSnapshot();
  ASSERT_FALSE(merged.counters.empty());
  for (const auto& [name, value] : merged.counters) {
    int64_t sum = 0;
    if (auto it = s0.counters.find(name); it != s0.counters.end()) {
      sum += it->second;
    }
    if (auto it = s1.counters.find(name); it != s1.counters.end()) {
      sum += it->second;
    }
    EXPECT_EQ(value, sum) << "counter " << name;
  }
  for (const auto& [name, value] : merged.histograms) {
    int64_t count = 0;
    if (auto it = s0.histograms.find(name); it != s0.histograms.end()) {
      count += it->second.count;
    }
    if (auto it = s1.histograms.find(name); it != s1.histograms.end()) {
      count += it->second.count;
    }
    EXPECT_EQ(value.count, count) << "histogram " << name;
  }

  // Router-level QoS saw every delivered record exactly once.
  const auto qos = client->QosSnapshot();
  EXPECT_EQ(qos.total_outputs, 40);
}

// Ratio gauges do not add across shards: ring occupancy merges by max and
// the compression ratio is recomputed from the summed byte totals — on
// snapshots taken mid-run and on the quiescent client view after a drain.
TEST(ClientTest, MergedRatioGaugesAreNotSummed) {
  ManualClock clock;
  JobConfig config = ValidBase();
  config.job.clock = &clock;
  config.job.threaded = true;  // rings exist only between task threads
  config.job.storage.memory_budget_bytes = 2 << 10;
  config.shards = 2;
  auto client = std::move(Client::Create(std::move(config))).value();
  ASSERT_TRUE(client->Start().ok());
  QueryDescriptor d;
  d.kind = QueryKind::kJoin;
  d.window = spe::WindowSpec::Sliding(80, 20);
  ASSERT_TRUE(client->Submit(d).ok());
  client->Pump(true);

  auto check = [](const obs::MetricsRegistry::Snapshot& merged,
                  const obs::MetricsRegistry::Snapshot& s0,
                  const obs::MetricsRegistry::Snapshot& s1) {
    auto gauge = [](const obs::MetricsRegistry::Snapshot& s,
                    const std::string& name) {
      auto it = s.gauges.find(name);
      return it == s.gauges.end() ? int64_t{0} : it->second;
    };
    int rings = 0;
    for (const auto& [name, value] : merged.gauges) {
      if (name.find(".ring_occupancy_bp") == std::string::npos) continue;
      ++rings;
      EXPECT_EQ(value, std::max(gauge(s0, name), gauge(s1, name))) << name;
    }
    EXPECT_GT(rings, 0);
    const int64_t disk = gauge(s0, "storage.spilled_disk_bytes") +
                         gauge(s1, "storage.spilled_disk_bytes");
    const int64_t raw = gauge(s0, "storage.spilled_raw_bytes") +
                        gauge(s1, "storage.spilled_raw_bytes");
    EXPECT_EQ(gauge(merged, "storage.compressed_ratio_bp"),
              obs::CompressedRatioBp(disk, raw));
    EXPECT_LE(gauge(merged, "storage.compressed_ratio_bp"), 10000);
  };

  for (spe::Value i = 0; i < 600; ++i) {
    clock.SetMs(5 + i);
    client->Push(i % 2 == 0 ? StreamId::kA : StreamId::kB, 5 + i,
                 Row{i % 13, i});
    if (i % 20 == 19) client->PushWatermark(5 + i);
    if (i % 100 == 99) {
      const auto s0 = client->router()->shard(0)->MetricsSnapshot();
      const auto s1 = client->router()->shard(1)->MetricsSnapshot();
      check(obs::MergeSnapshots({s0, s1}), s0, s1);
    }
  }
  ASSERT_TRUE(client->FinishAndWait().ok());
  const auto merged = client->MetricsSnapshot();
  const auto s0 = client->router()->shard(0)->MetricsSnapshot();
  const auto s1 = client->router()->shard(1)->MetricsSnapshot();
  // Both shards spilled, so a summed ratio would read above 10000.
  EXPECT_GT(s0.gauges.at("storage.spilled_raw_bytes"), 0);
  EXPECT_GT(s1.gauges.at("storage.spilled_raw_bytes"), 0);
  check(merged, s0, s1);
}

}  // namespace
}  // namespace astream
