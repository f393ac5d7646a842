#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/core/e2e_harness.h"
#include "workload/query_generator.h"

namespace astream::core {
namespace {

using Kind = AStreamJob::TopologyKind;

/// Randomized ad-hoc workload: queries are created and deleted at random
/// times while random data flows; every query's engine output must equal
/// the offline reference (the paper's Consistency requirement, Sec. 1.2).
struct PropertyCase {
  Kind topology;
  int parallelism;
  uint64_t seed;
};

class AdhocConsistencyProperty
    : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(AdhocConsistencyProperty, EngineMatchesReference) {
  const PropertyCase param = GetParam();
  Rng rng(param.seed);
  workload::QueryGenerator::Config qcfg;
  qcfg.num_fields = 2;  // rows below carry [key, c1, c2]
  qcfg.fields_max = 100;
  qcfg.window_min = 10;
  qcfg.window_max = 120;
  qcfg.predicates_per_side = 1;
  qcfg.session_probability =
      param.topology == Kind::kAggregation ? 0.25 : 0.0;
  workload::QueryGenerator qgen(qcfg, param.seed * 31 + 1);

  const int num_streams = param.topology == Kind::kMultiway ? 3 : 2;
  E2EHarness h(param.topology, param.parallelism, StoreMode::kGrouped, true,
               [num_streams](AStreamJob::Options* o) {
                 o->num_streams = num_streams;
               });

  auto make_query = [&]() -> QueryDescriptor {
    switch (param.topology) {
      case Kind::kAggregation:
        return rng.Bernoulli(0.25) ? qgen.Selection() : qgen.Aggregation();
      case Kind::kJoin:
        return rng.Bernoulli(0.2) ? qgen.Selection() : qgen.Join();
      case Kind::kComplex:
        return qgen.Complex(/*max_depth=*/3);
      case Kind::kMultiway:
        return rng.Bernoulli(0.2) ? qgen.Selection()
                                  : qgen.Multiway(num_streams);
    }
    return qgen.Selection();
  };

  std::vector<QueryId> live;
  TimestampMs t = 0;
  // Complex pipelines and n-ary joins blow up combinatorially; keep their
  // randomized runs shorter than the linear-operator ones.
  const int steps = param.topology == Kind::kComplex ||
                            param.topology == Kind::kMultiway
                        ? 120
                        : 250;
  for (int step = 0; step < steps; ++step) {
    t += rng.UniformInt(1, 6);
    const double action = rng.UniformDouble();
    if (action < 0.06 && live.size() < 12) {
      live.push_back(h.Create(make_query(), t));
    } else if (action < 0.09 && !live.empty()) {
      const size_t idx =
          static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      h.Delete(live[idx], t);
      live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
    } else if (action < 0.12 && live.size() >= 2) {
      // Delete + create in ONE changelog (slot reuse within a batch).
      const size_t idx =
          static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      h.Cancel(live[idx], t);
      live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
      live.push_back(h.Submit(make_query(), t));
      h.Flush(t);
    } else {
      // Push 1-4 tuples.
      const int n = static_cast<int>(rng.UniformInt(1, 4));
      for (int i = 0; i < n; ++i) {
        spe::Row row{rng.UniformInt(0, 4), rng.UniformInt(0, 99),
                     rng.UniformInt(0, 99)};
        if (param.topology == Kind::kMultiway) {
          h.Push(static_cast<int>(rng.UniformInt(0, num_streams - 1)), t,
                 std::move(row));
        } else if (param.topology != Kind::kAggregation &&
                   rng.Bernoulli(0.5)) {
          h.Push(1, t, std::move(row));
        } else {
          h.Push(0, t, std::move(row));
        }
      }
      if (rng.Bernoulli(0.3)) h.Watermark(t);
    }
  }
  h.Watermark(t + 500);
  h.FinishAndVerify();
}

std::string CaseName(
    const ::testing::TestParamInfo<PropertyCase>& info) {
  std::string kind;
  switch (info.param.topology) {
    case Kind::kAggregation:
      kind = "Agg";
      break;
    case Kind::kJoin:
      kind = "Join";
      break;
    case Kind::kComplex:
      kind = "Complex";
      break;
    case Kind::kMultiway:
      kind = "Mjoin";
      break;
  }
  return kind + "P" + std::to_string(info.param.parallelism) + "Seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, AdhocConsistencyProperty,
    ::testing::Values(
        PropertyCase{Kind::kAggregation, 1, 1},
        PropertyCase{Kind::kAggregation, 1, 2},
        PropertyCase{Kind::kAggregation, 1, 3},
        PropertyCase{Kind::kAggregation, 2, 4},
        PropertyCase{Kind::kAggregation, 4, 5},
        PropertyCase{Kind::kJoin, 1, 11},
        PropertyCase{Kind::kJoin, 1, 12},
        PropertyCase{Kind::kJoin, 1, 13},
        PropertyCase{Kind::kJoin, 2, 14},
        PropertyCase{Kind::kJoin, 4, 15},
        PropertyCase{Kind::kComplex, 1, 21},
        PropertyCase{Kind::kComplex, 1, 22},
        PropertyCase{Kind::kComplex, 2, 23},
        PropertyCase{Kind::kMultiway, 1, 31},
        PropertyCase{Kind::kMultiway, 1, 32},
        PropertyCase{Kind::kMultiway, 2, 33}),
    CaseName);

}  // namespace
}  // namespace astream::core
