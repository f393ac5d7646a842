// Sharded scale-out: push-path throughput and output equivalence as the
// same deterministic keyed workload runs on 1, 2, and 4 router shards,
// plus a live-resharding leg that splits a shard mid-run and reports the
// drain-to-restore pause. Every leg must fold its outputs into the same
// order-insensitive hash as the single-job sync reference — the router
// only changes WHERE a key's state lives, never what any query emits.
//
// The banner prints the host's CPU count (as nproc counts them): with
// fewer CPUs than pump threads plus the control thread, the threaded legs
// time-share cores and measure router overhead rather than speedup.

#include <sched.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/astream.h"
#include "harness/report.h"
#include "shard/client.h"

namespace astream::bench {
namespace {

using core::AStreamJob;
using core::CmpOp;
using core::Predicate;
using core::QueryDescriptor;
using core::QueryKind;
using spe::Row;

constexpr int kRows = 40000;
constexpr int kKeys = 64;
constexpr TimestampMs kWindow = 2000;
constexpr TimestampMs kSlide = 500;

struct RunStats {
  double wall_s = 0;
  int64_t rows_out = 0;
  uint64_t out_hash = 0;
  int64_t pause_ms = -1;  // -1: leg did not reshard
  int final_shards = 0;
  bool ok = false;
};

uint64_t HashRecord(TimestampMs event_time, const Row& row) {
  uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<uint64_t>(event_time);
  for (size_t c = 0; c < row.NumColumns(); ++c) {
    h ^= static_cast<uint64_t>(row.At(c)) + 0x9e3779b97f4a7c15ULL +
         (h << 6) + (h >> 2);
  }
  return h;
}

std::vector<QueryDescriptor> StandingQueries() {
  QueryDescriptor join;
  join.kind = QueryKind::kJoin;
  join.window = spe::WindowSpec::Sliding(kWindow, kSlide);
  join.select_a = {Predicate{1, CmpOp::kLt, 80}};
  join.select_b = {Predicate{1, CmpOp::kGt, 10}};
  QueryDescriptor narrow = join;
  narrow.window = spe::WindowSpec::Sliding(600, 300);
  narrow.select_a = {Predicate{2, CmpOp::kGe, 50}};
  QueryDescriptor selection;
  selection.kind = QueryKind::kSelection;
  selection.select_a = {Predicate{2, CmpOp::kLt, 25}};
  return {join, narrow, selection};
}

/// One deterministic pass of the workload through any push interface.
template <typename PushFn, typename WatermarkFn>
void Stream(PushFn&& push, WatermarkFn&& watermark, ManualClock* clock,
            const std::function<void(int)>& at_step) {
  Rng rng(4242);
  TimestampMs t = 1;
  for (int i = 0; i < kRows; ++i) {
    t += rng.UniformInt(0, 2);
    clock->SetMs(t);
    const Row row{rng.UniformInt(0, kKeys - 1), rng.UniformInt(0, 99),
                  rng.UniformInt(0, 99)};
    push(rng.Bernoulli(0.5) ? StreamId::kB : StreamId::kA, t, row);
    if (i % 1000 == 999) watermark(t);
    if (at_step) at_step(i);
  }
}

/// Single plain sync job: the reference output and baseline throughput.
RunStats RunReference() {
  ManualClock clock;
  AStreamJob::Options options;
  options.topology = AStreamJob::TopologyKind::kJoin;
  options.parallelism = 1;
  options.threaded = false;
  options.clock = &clock;
  options.session.batch_size = 1;
  auto job_or = AStreamJob::Create(options);
  if (!job_or.ok()) return {};
  auto job = std::move(job_or).value();
  if (!job->Start().ok()) return {};

  RunStats stats;
  job->SetResultCallback([&stats](core::QueryId, const spe::Record& r) {
    ++stats.rows_out;
    stats.out_hash += HashRecord(r.event_time, r.row);
  });
  clock.SetMs(0);
  for (const auto& d : StandingQueries()) {
    if (!job->Submit(d).ok()) return {};
  }
  job->Pump(true);

  const auto start = std::chrono::steady_clock::now();
  Stream(
      [&job](StreamId stream, TimestampMs t, Row row) {
        if (stream == StreamId::kA) {
          job->PushA(t, std::move(row));
        } else {
          job->PushB(t, std::move(row));
        }
      },
      [&job](TimestampMs t) { job->PushWatermark(t); }, &clock, nullptr);
  if (!job->FinishAndWait().ok()) return {};
  const auto end = std::chrono::steady_clock::now();
  stats.wall_s = std::chrono::duration<double>(end - start).count();
  stats.final_shards = 0;
  stats.ok = true;
  return stats;
}

/// Sharded client run; split_at >= 0 splits shard 0 mid-stream.
RunStats RunSharded(int shards, int split_at) {
  ManualClock clock;
  auto config = JobConfigBuilder(AStreamJob::TopologyKind::kJoin)
                    .Parallelism(1)
                    .Clock(&clock)
                    .SessionBatch(1, 0)
                    .Shards(shards)
                    .Slots(64)
                    .ShardThreads(true)
                    .IngressCapacity(1024)
                    .Build();
  if (!config.ok()) return {};
  auto client_or = Client::Create(*config);
  if (!client_or.ok()) return {};
  auto client = std::move(client_or).value();
  if (!client->Start().ok()) return {};

  RunStats stats;
  std::mutex mu;
  client->SetResultCallback(
      [&stats, &mu](core::QueryId, const spe::Record& r) {
        std::lock_guard<std::mutex> lock(mu);
        ++stats.rows_out;
        stats.out_hash += HashRecord(r.event_time, r.row);
      });
  clock.SetMs(0);
  for (const auto& d : StandingQueries()) {
    if (!client->Submit(d).ok()) return {};
  }
  client->Pump(true);

  const auto start = std::chrono::steady_clock::now();
  Stream(
      [&client](StreamId stream, TimestampMs t, Row row) {
        client->Push(stream, t, std::move(row));
      },
      [&client](TimestampMs t) { client->PushWatermark(t); }, &clock,
      [&client, &stats, split_at](int i) {
        if (i == split_at && client->SplitShard(0).ok()) {
          stats.pause_ms = client->last_reshard_pause_ms();
        }
      });
  if (!client->FinishAndWait().ok()) return {};
  const auto end = std::chrono::steady_clock::now();
  stats.wall_s = std::chrono::duration<double>(end - start).count();
  stats.final_shards = client->num_shards();
  stats.ok = true;
  return stats;
}

/// CPUs this process may run on — what `nproc` prints.
int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

bool Run() {
  harness::PrintBanner(
      "micro_shard — sharded scale-out: routing, merge, live resharding",
      "The identical keyed workload (40000 tuples, 64 keys, 3 standing "
      "queries) runs on a single sync job and then on 1/2/4 router "
      "shards with per-shard pump threads; one leg splits shard 0 "
      "mid-run. All legs must produce the same order-insensitive "
      "output hash.",
      "join topology, parallelism 1 per shard, sliding windows "
      "2000/500 + 600/300, watermark every 1000 tuples; host nproc = " +
          std::to_string(Nproc()) +
          " (an N-shard leg runs N pump threads plus the control thread)");

  struct Leg {
    std::string label;
    RunStats stats;
  };
  std::vector<Leg> legs;
  legs.push_back({"reference (1 job, sync)", RunReference()});
  for (int shards : {1, 2, 4}) {
    legs.push_back({std::to_string(shards) + " shard(s), threaded",
                    RunSharded(shards, /*split_at=*/-1)});
  }
  legs.push_back(
      {"2 shards + live split", RunSharded(2, /*split_at=*/kRows / 2)});

  harness::Table table({"leg", "tuples/s", "rows out", "output hash",
                        "split pause ms", "final shards"});
  const uint64_t want = legs.front().stats.out_hash;
  bool all_match = true;
  for (const auto& leg : legs) {
    if (!leg.stats.ok || leg.stats.out_hash != want) all_match = false;
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(leg.stats.out_hash));
    table.AddRow(
        {leg.label,
         std::to_string(static_cast<int64_t>(
             leg.stats.wall_s > 0 ? kRows / leg.stats.wall_s : 0)),
         std::to_string(leg.stats.rows_out), hash,
         leg.stats.pause_ms >= 0 ? std::to_string(leg.stats.pause_ms)
                                 : "-",
         leg.stats.final_shards > 0
             ? std::to_string(leg.stats.final_shards)
             : "-"});
  }
  table.Print();
  std::printf("\n%s\n", all_match
                            ? "all legs match the reference output hash"
                            : "HASH MISMATCH — sharding changed outputs");
  return all_match;
}

}  // namespace
}  // namespace astream::bench

int main() { return astream::bench::Run() ? 0 : 1; }
