// Ablation of the shared selection's predicate index: naive per-query
// conjunction evaluation vs. the shared index where each distinct
// predicate is evaluated once per tuple (and failing predicates subtract
// whole query-sets). The win grows with query count and with predicate
// overlap across queries (the paper's future-work "grouping similar
// queries").

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/shared_selection.h"

namespace astream::core {
namespace {

using spe::Row;

class NullCollector : public spe::Collector {
 public:
  void Emit(spe::StreamElement) override {}
  void EmitRun(spe::RecordBatch&) override {}
};

spe::ControlMarker MakeWorkload(int num_queries, int distinct_constants,
                                uint64_t seed) {
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
        rng.UniformInt(0, distinct_constants - 1)});
    log->created.push_back(std::move(a));
  }
  log->num_slots = num_queries;
  log->ComputeChangelogSet();
  return Changelog::MakeMarker(std::move(log));
}

void RunSelection(benchmark::State& state, bool use_index,
                  int distinct_constants) {
  const int num_queries = static_cast<int>(state.range(0));
  SharedSelection::Config cfg;
  cfg.use_predicate_index = use_index;
  SharedSelection sel(cfg);
  NullCollector out;
  sel.OnMarker(MakeWorkload(num_queries, distinct_constants, 7), &out);

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
  state.counters["distinct_preds"] =
      static_cast<double>(sel.IndexSize());
}

/// Overlapping workload: constants drawn from a small domain, so many
/// queries share identical predicates.
void BM_SelectionNaiveOverlapping(benchmark::State& state) {
  RunSelection(state, /*use_index=*/false, /*distinct_constants=*/8);
}
BENCHMARK(BM_SelectionNaiveOverlapping)->Arg(8)->Arg(64)->Arg(512);

void BM_SelectionIndexedOverlapping(benchmark::State& state) {
  RunSelection(state, /*use_index=*/true, /*distinct_constants=*/8);
}
BENCHMARK(BM_SelectionIndexedOverlapping)->Arg(8)->Arg(64)->Arg(512);

/// Disjoint workload: every query has a unique predicate — the index's
/// only advantage is the early exit when the tag set empties.
void BM_SelectionNaiveDisjoint(benchmark::State& state) {
  RunSelection(state, /*use_index=*/false, /*distinct_constants=*/100'000);
}
BENCHMARK(BM_SelectionNaiveDisjoint)->Arg(8)->Arg(64)->Arg(512);

void BM_SelectionIndexedDisjoint(benchmark::State& state) {
  RunSelection(state, /*use_index=*/true, /*distinct_constants=*/100'000);
}
BENCHMARK(BM_SelectionIndexedDisjoint)->Arg(8)->Arg(64)->Arg(512);

}  // namespace
}  // namespace astream::core

BENCHMARK_MAIN();
