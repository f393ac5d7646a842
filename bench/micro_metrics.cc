// Overhead of the observability layer on the selection hot path: the
// same shared-selection record loop with (a) no registry wired, (b) a
// constructed-but-disabled registry (the documented one-branch path), and
// (c) a fully enabled registry (named counters + router-side series).
// Acceptance bar: enabled vs. disabled within 5% on this loop.
//
// Raw primitive costs (Counter::Add, Histogram::Record, Gauge::Set) are
// benchmarked separately so regressions are attributable.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/shared_selection.h"
#include "obs/metrics.h"

namespace astream::core {
namespace {

using spe::Row;

class NullCollector : public spe::Collector {
 public:
  void Emit(spe::StreamElement) override {}
  void EmitRun(spe::RecordBatch&) override {}
};

spe::ControlMarker MakeWorkload(int num_queries, uint64_t seed) {
  Rng rng(seed);
  auto log = std::make_shared<Changelog>();
  log->epoch = 1;
  log->time = 1;
  for (int q = 0; q < num_queries; ++q) {
    QueryActivation a;
    a.id = q + 1;
    a.slot = q;
    a.created_at = 1;
    a.desc.kind = QueryKind::kSelection;
    a.desc.select_a.push_back(Predicate{
        1 + static_cast<int>(rng.UniformInt(0, 4)),
        static_cast<CmpOp>(rng.UniformInt(0, 4)),
        rng.UniformInt(0, 999)});
    log->created.push_back(std::move(a));
  }
  log->num_slots = num_queries;
  log->ComputeChangelogSet();
  return Changelog::MakeMarker(std::move(log));
}

enum class Wiring { kNoRegistry, kDisabled, kEnabled };

void RunSelection(benchmark::State& state, Wiring wiring) {
  const int num_queries = static_cast<int>(state.range(0));
  obs::MetricsRegistry registry(wiring == Wiring::kEnabled);
  SharedSelection::Config cfg;
  if (wiring != Wiring::kNoRegistry) cfg.metrics = &registry;
  SharedSelection sel(cfg);
  spe::OperatorContext ctx;
  ctx.stage_name = "shared-selection-a";  // counters: selection.a.*
  if (!sel.Open(ctx).ok()) state.SkipWithError("open failed");
  NullCollector out;
  sel.OnMarker(MakeWorkload(num_queries, 7), &out);

  Rng rng(11);
  std::vector<Row> rows;
  for (int i = 0; i < 256; ++i) {
    rows.push_back(Row{rng.UniformInt(0, 99), rng.UniformInt(0, 999),
                       rng.UniformInt(0, 999), rng.UniformInt(0, 999),
                       rng.UniformInt(0, 999), rng.UniformInt(0, 999)});
  }
  size_t i = 0;
  for (auto _ : state) {
    spe::Record r;
    r.event_time = 10;
    r.row = rows[i++ % rows.size()];
    sel.ProcessRecord(0, std::move(r), &out);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SelectionNoRegistry(benchmark::State& state) {
  RunSelection(state, Wiring::kNoRegistry);
}
BENCHMARK(BM_SelectionNoRegistry)->Arg(8)->Arg(64)->Arg(512);

void BM_SelectionMetricsDisabled(benchmark::State& state) {
  RunSelection(state, Wiring::kDisabled);
}
BENCHMARK(BM_SelectionMetricsDisabled)->Arg(8)->Arg(64)->Arg(512);

void BM_SelectionMetricsEnabled(benchmark::State& state) {
  RunSelection(state, Wiring::kEnabled);
}
BENCHMARK(BM_SelectionMetricsEnabled)->Arg(8)->Arg(64)->Arg(512);

void BM_CounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry(true);
  obs::Counter* c = registry.GetCounter("bench.counter");
  for (auto _ : state) c->Add();
  benchmark::DoNotOptimize(c->Value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);

void BM_GaugeSet(benchmark::State& state) {
  obs::MetricsRegistry registry(true);
  obs::Gauge* g = registry.GetGauge("bench.gauge");
  int64_t v = 0;
  for (auto _ : state) g->Set(++v);
  benchmark::DoNotOptimize(g->Value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramRecord(benchmark::State& state) {
  obs::MetricsRegistry registry(true);
  obs::Histogram* h = registry.GetHistogram("bench.histogram");
  int64_t v = 0;
  for (auto _ : state) h->Record(v = (v * 1103515245 + 12345) & 0xffff);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_SeriesCacheHit(benchmark::State& state) {
  obs::MetricsRegistry registry(true);
  obs::SeriesCache cache(&registry);
  cache.For(1);  // warm
  for (auto _ : state) {
    obs::QuerySeries* s = cache.For(1);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SeriesCacheHit);

}  // namespace
}  // namespace astream::core

BENCHMARK_MAIN();
