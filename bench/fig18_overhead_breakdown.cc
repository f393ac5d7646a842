// Reproduces Figure 18: the overhead of AStream's sharing machinery.
//   18a — proportion of the three overhead components (query-set
//         generation, bitset operations, data copy in the router) as query
//         parallelism grows. Paper: roughly equal at low qp; data copy
//         dominates at high qp (results must be shipped to physically
//         different query channels).
//   18b — total sharing overhead relative to processing time. Paper: ~10%
//         worst case for a single query, below 2% with many queries.

#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"

namespace astream::bench {
namespace {

using core::QueryKind;

/// Calibrates the cost of one masked query-set AND (used to convert the
/// shared operators' bitset-op counters into time).
double CalibrateBitsetOpNanos(size_t bits) {
  core::QuerySet a = core::QuerySet::AllSet(bits);
  core::QuerySet b;
  for (size_t i = 0; i < bits; i += 3) b.Set(i);
  const int iters = 2'000'000;
  volatile uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    core::QuerySet c = a & b;
    sink += c.Count();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  (void)sink;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
             .count() /
         static_cast<double>(iters);
}

void Run() {
  harness::PrintBanner(
      "Figure 18 — overhead of AStream's components (SC1, 4-node)",
      "18a: share of query-set generation vs. bitset ops vs. router data "
      "copy. 18b: total sharing overhead as % of processing time.",
      std::string(kClusterScaling) +
          "; qp sweep 1..128; bitset op time = counter x calibrated "
          "cost/op");

  const double ns_per_op = CalibrateBitsetOpNanos(128);
  std::printf("calibrated bitset AND: %.1f ns/op\n\n", ns_per_op);

  harness::Table table_a({"query parallelism", "query-set gen %",
                          "bitset ops %", "router copy %"});
  harness::Table table_b(
      {"query parallelism", "overhead % of one core-second/s"});

  for (size_t qp : {1u, 16u, 64u, 128u}) {
    auto sut = MakeAStream(
        core::AStreamJob::TopologyKind::kJoin, 2, /*measure_overhead=*/true);
    if (!sut->Start().ok()) continue;
    workload::Sc1Scenario scenario(/*rate_per_sec=*/400, qp);
    const TimestampMs duration = 2400;
    const auto report = RunScenario(
        sut.get(), &scenario, QueryFactory(QueryKind::kJoin, 31), duration,
        /*push_b=*/true, /*rate=*/200'000, /*sample=*/0, /*warmup=*/800,
        /*drain_at_end=*/false);
    (void)report;
    const auto stats = sut->job()->CollectStats();
    sut->Stop();

    const double queryset_ns = static_cast<double>(stats.queryset_nanos);
    const double bitset_ns =
        static_cast<double>(stats.bitset_ops) * ns_per_op;
    const double copy_ns = static_cast<double>(stats.fanout_nanos);
    const double total = queryset_ns + bitset_ns + copy_ns;
    if (total <= 0) continue;
    table_a.AddRow({std::to_string(qp),
                    harness::FormatDouble(100 * queryset_ns / total, 1),
                    harness::FormatDouble(100 * bitset_ns / total, 1),
                    harness::FormatDouble(100 * copy_ns / total, 1)});
    // 18b: pure sharing bookkeeping (bitset masks + router copies) as a
    // share of processing time. Query-set *generation* is excluded from
    // the total: it contains the predicate evaluation a query-at-a-time
    // system pays once per query anyway (see EXPERIMENTS.md).
    const double wall_ns = duration * 1e6;
    table_b.AddRow(
        {std::to_string(qp),
         harness::FormatDouble(100 * (bitset_ns + copy_ns) / wall_ns, 2)});
  }

  // 18c (repo extension): the storage engine v2 share of the overhead
  // under a memory budget — compaction time and the spill byte savings
  // (compressed ratio, hot-slice reload saves) from the obs gauges.
  harness::Table table_c({"gauge", "value"});
  {
    core::AStreamJob::Options options;
    options.topology = core::AStreamJob::TopologyKind::kJoin;
    options.parallelism = 2;
    options.threaded = true;
    options.measure_overhead = true;
    options.channel_capacity = 2048;
    options.storage.memory_budget_bytes = 8LL << 20;
    options.storage.compaction_min_runs = 2;
    auto sut = std::make_unique<harness::AStreamSut>(options);
    if (sut->Start().ok()) {
      workload::Sc1Scenario scenario(/*rate_per_sec=*/400, 16);
      RunScenario(sut.get(), &scenario, QueryFactory(QueryKind::kJoin, 31),
                  /*duration=*/2400, /*push_b=*/true, /*rate=*/200'000,
                  /*sample=*/0, /*warmup=*/800, /*drain_at_end=*/false);
      const auto snapshot = sut->job()->MetricsSnapshot();
      for (const char* g :
           {"storage.compaction_runs", "storage.compaction_ms",
            "storage.compressed_ratio_bp", "storage.reload_saves"}) {
        const auto it = snapshot.gauges.find(g);
        table_c.AddRow(
            {g, it == snapshot.gauges.end() ? "-"
                                            : std::to_string(it->second)});
      }
      sut->Stop();
    }
  }

  std::printf("Figure 18a — overhead proportion of AStream components:\n");
  table_a.Print();
  std::printf(
      "\nFigure 18b — sharing bookkeeping overhead (bitset ops + router "
      "copies, share of one core-second per wall second):\n");
  table_b.Print();
  std::printf(
      "\nFigure 18c — storage engine v2 under an 8 MiB budget (qp=16; "
      "compressed_ratio_bp = on-disk/raw in basis points, reload_saves = "
      "aggregation and multiway evictions redirected away from re-read "
      "slices, 0 here: the join spills its oldest slice):\n");
  table_c.Print();
  std::printf(
      "\nExpected shape vs. paper: components roughly comparable at low "
      "qp; the router's fan-out dominates as qp grows (every result is "
      "shipped to each subscribed query's channel — with copy-on-write "
      "rows this is a refcount bump, not a data copy). Total overhead "
      "stays a small fraction of processing time and shrinks per query as "
      "sharing amortizes (paper: <2%% at 1000 queries). The router runs "
      "chained onto the tasks that feed it, so its fan-out time "
      "(fanout_nanos, 'router copy') is spent on the thread of the join "
      "or selection task that produced each result.\n");
}

}  // namespace
}  // namespace astream::bench

int main() {
  astream::bench::BenchInit();
  astream::bench::Run();
  return 0;
}
