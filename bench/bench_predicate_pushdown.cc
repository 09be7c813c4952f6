// Experiment E3: predicate pushdown.
//
// §2.1.2 pushes predicates "down to the sequence operators" to cut
// intermediate results. Here single-variable predicates of varying
// selectivity either run on the NFA edges (pushdown) or in the Selection
// operator above the scan (post-filter). Expected shape: at low selectivity
// pushdown wins by a widening margin — unselective instances never enter
// the stacks, so construction never enumerates them.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace sase {
namespace bench {
namespace {

// area_count = 10, so `x.AreaId < k` keeps roughly k/10 of shelf events.
std::string Query(int64_t k) {
  return "EVENT SEQ(SHELF_READING x, COUNTER_READING y, EXIT_READING z) "
         "WHERE x.AreaId < " + std::to_string(k) +
         " AND y.AreaId < " + std::to_string(k) +
         " AND z.AreaId < " + std::to_string(k) + " WITHIN 200";
}

const std::vector<EventPtr>& Stream() {
  SyntheticConfig config;
  config.seed = 31;
  config.event_count = 10000;
  config.tag_count = 100;
  config.area_count = 10;
  return CachedStream(config, "pred");
}

void RunWithOptions(benchmark::State& state, bool push_predicates) {
  int64_t selectivity = state.range(0);
  PlanOptions options;
  options.push_predicates = push_predicates;
  uint64_t outputs = 0, intermediate = 0;
  for (auto _ : state) {
    BenchPlan plan(Query(selectivity), options);
    plan.Run(Stream());
    outputs = plan.outputs;
    intermediate = plan.plan->selection().matches_in();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
  state.counters["matches"] = static_cast<double>(outputs);
  state.counters["intermediate"] = static_cast<double>(intermediate);
}

void BM_Predicate_Pushdown(benchmark::State& state) {
  RunWithOptions(state, /*push_predicates=*/true);
}

void BM_Predicate_PostFilter(benchmark::State& state) {
  RunWithOptions(state, /*push_predicates=*/false);
}

// Selectivity sweep: ~10%, ~30%, ~50%, 100% of events pass each filter.
BENCHMARK(BM_Predicate_Pushdown)
    ->Arg(1)->Arg(3)->Arg(5)->Arg(10)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Predicate_PostFilter)
    ->Arg(1)->Arg(3)->Arg(5)->Arg(10)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace sase

BENCHMARK_MAIN();
