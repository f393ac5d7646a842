// Out-of-core state: throughput and resident-memory footprint of one
// join workload whose live state (~70 MiB of wide tuples) far exceeds
// the smaller memory budgets. Three runs of the identical deterministic
// script — unlimited, 64 MiB, 8 MiB — must produce the same output
// multiset (checked by an order-insensitive hash); the budgeted runs
// trade throughput for a resident footprint pinned near the budget.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/astream.h"
#include "harness/report.h"

namespace astream::bench {
namespace {

using core::AStreamJob;
using core::CmpOp;
using core::Predicate;
using core::QueryDescriptor;
using core::QueryKind;
using spe::Row;
using spe::Value;

constexpr int kCols = 256;          // ~2 KiB payload per tuple
constexpr int kRows = 80000;        // ~166 MiB pushed over the run
constexpr TimestampMs kWindow = 32000;  // ~70 MiB live at steady state
constexpr TimestampMs kSlide = 8000;

struct RunStats {
  double wall_s = 0;
  int64_t rows_out = 0;
  uint64_t out_hash = 0;
  int64_t max_resident = 0;
  int64_t spills = 0;
  int64_t spill_ms = 0;
  int64_t spill_mib = 0;       // cumulative on-disk spill volume
  int64_t compaction_runs = 0;
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

RunStats RunOnce(int64_t budget_bytes, bool compress = true,
                 bool compaction = true, int min_runs = 4) {
  ManualClock clock;
  AStreamJob::Options options;
  options.topology = AStreamJob::TopologyKind::kJoin;
  options.parallelism = 1;
  options.threaded = false;  // deterministic; measures the full spill cost
  options.clock = &clock;
  options.session.batch_size = 1;
  options.storage.memory_budget_bytes = budget_bytes;
  options.storage.compress_spill = compress;
  options.storage.compaction = compaction;
  options.storage.compaction_min_runs = min_runs;
  auto job_or = AStreamJob::Create(options);
  if (!job_or.ok()) return {};
  auto job = std::move(job_or).value();
  if (!job->Start().ok()) return {};

  RunStats stats;
  job->SetResultCallback([&stats](core::QueryId, const spe::Record& r) {
    ++stats.rows_out;
    // Commutative combine: insensitive to emission order, which differs
    // between the hash-join (resident) and merge-join (spilled) paths.
    stats.out_hash += HashRecord(r.event_time, r.row);
  });

  QueryDescriptor d;
  d.kind = QueryKind::kJoin;
  d.window = spe::WindowSpec::Sliding(kWindow, kSlide);
  d.select_a = {Predicate{1, CmpOp::kLt, 1000}};
  if (!job->Submit(d).ok()) return {};
  clock.SetMs(0);
  job->Pump(true);

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRows; ++i) {
    const TimestampMs t = 2 + i;
    clock.SetMs(t);
    std::vector<Value> values(kCols, i);
    values[0] = i / 2;  // rows 2k (A) and 2k+1 (B) pair up exactly once
    values[1] = i % 100;
    Row row(std::move(values));
    if (i % 2 == 0) {
      job->Push(0, t, std::move(row));
    } else {
      job->Push(1, t, std::move(row));
    }
    if (i % 2000 == 1999) job->PushWatermark(t - kWindow);
    if (i % 1000 == 999) {
      const auto snapshot = job->MetricsSnapshot();
      const auto it = snapshot.gauges.find("storage.resident_bytes");
      if (it != snapshot.gauges.end() && it->second > stats.max_resident) {
        stats.max_resident = it->second;
      }
    }
  }
  if (!job->FinishAndWait().ok()) return {};
  stats.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  const auto snapshot = job->MetricsSnapshot();
  const auto it = snapshot.histograms.find("storage.spill_ms");
  if (it != snapshot.histograms.end()) {
    stats.spills = it->second.count;
    stats.spill_ms = it->second.sum;
  }
  if (job->spill_space() != nullptr) {
    stats.spill_mib = job->spill_space()->total_spill_bytes() >> 20;
  }
  if (job->compactor() != nullptr) {
    stats.compaction_runs = job->compactor()->runs_compacted();
  }
  stats.ok = true;
  return stats;
}

bool Run() {
  harness::PrintBanner(
      "micro_spill — out-of-core state vs memory budget",
      "One deterministic join workload (80k wide 256-column tuples, "
      "~70 MiB live window state) under three budgets. The governor "
      "spills coldest slices to run files; join finalize streams a "
      "k-way merge over resident + spilled runs. Outputs must be "
      "identical (order-insensitive hash) across budgets.",
      "sync join topology, parallelism 1, sliding window 32000/8000, "
      "watermark every 2000 tuples");
  struct Leg {
    const char* label;
    int64_t budget;
    bool compress;
    bool compaction;
    int min_runs;
  };
  // The "raw runs" leg is the storage engine v1 behavior (uncompressed
  // blocks, no folding) under the same budget — the perf-opt baseline.
  // "v2 full" is the default engine config (compaction armed at
  // min_runs = 4; this workload's stores close before reaching it);
  // "eager compact" drops the threshold to 2 so every fold path runs,
  // showing the fold's inline cost in a low-fan-in workload.
  const std::vector<Leg> legs = {
      {"unlimited", 1LL << 40, true, true, 4},
      {"64 MiB", 64LL << 20, true, true, 4},
      {"8 MiB raw runs", 8LL << 20, false, false, 4},
      {"8 MiB compressed", 8LL << 20, true, false, 4},
      {"8 MiB v2 full", 8LL << 20, true, true, 4},
      {"8 MiB eager compact", 8LL << 20, true, true, 2}};
  harness::Table table({"leg", "tuples/s", "max resident MiB", "spills",
                        "spill ms", "spill MiB", "compacted runs",
                        "rows out", "output hash"});
  uint64_t reference_hash = 0;
  bool hashes_match = true;
  for (const auto& leg : legs) {
    const RunStats s =
        RunOnce(leg.budget, leg.compress, leg.compaction, leg.min_runs);
    if (!s.ok) {
      std::fprintf(stderr, "run failed for budget %s\n", leg.label);
      continue;
    }
    if (reference_hash == 0) reference_hash = s.out_hash;
    if (s.out_hash != reference_hash) hashes_match = false;
    char rate[32], resident[32], hash[32];
    std::snprintf(rate, sizeof(rate), "%.0f",
                  static_cast<double>(kRows) / s.wall_s);
    std::snprintf(resident, sizeof(resident), "%.1f",
                  static_cast<double>(s.max_resident) / (1 << 20));
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(s.out_hash));
    table.AddRow({leg.label, rate, resident, std::to_string(s.spills),
                  std::to_string(s.spill_ms), std::to_string(s.spill_mib),
                  std::to_string(s.compaction_runs),
                  std::to_string(s.rows_out), hash});
  }
  table.Print();
  std::printf("outputs identical across legs: %s\n",
              hashes_match ? "yes" : "NO — MISMATCH");
  return hashes_match;
}

}  // namespace
}  // namespace astream::bench

int main() {
  astream::bench::BenchInit();
  return astream::bench::Run() ? 0 : 1;
}
