// Experiment E4: negation cost.
//
// Negation ('!') is one of the language features the demo highlights (Q1's
// shoplifting query). This bench measures its runtime cost: the same
// positive pattern with and without a negated middle component, sweeping
// the rate of negated-type (COUNTER) events in the stream, plus the
// partitioned vs. scan negation-buffer ablation. Expected shape: negation
// adds a modest constant factor; the partitioned buffer keeps the check
// cheap even when counter events are frequent.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace sase {
namespace bench {
namespace {

constexpr const char* kWithNegation =
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
    "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 300";

constexpr const char* kWithoutNegation =
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) "
    "WHERE x.TagId = z.TagId WITHIN 300";

/// counter_pct is the percentage of COUNTER_READING events in the mix.
const std::vector<EventPtr>& Stream(int64_t counter_pct) {
  SyntheticConfig config;
  config.seed = 37;
  config.event_count = 20000;
  config.tag_count = 100;
  double counter = static_cast<double>(counter_pct) / 100.0;
  config.type_weights = {
      {"SHELF_READING", (1.0 - counter) / 2},
      {"COUNTER_READING", counter},
      {"EXIT_READING", (1.0 - counter) / 2},
  };
  return CachedStream(config, "neg" + std::to_string(counter_pct));
}

void BM_Negation_Off(benchmark::State& state) {
  const auto& stream = Stream(state.range(0));
  uint64_t outputs = 0;
  for (auto _ : state) {
    BenchPlan plan(kWithoutNegation, PlanOptions{});
    plan.Run(stream);
    outputs = plan.outputs;
  }
  state.SetItemsProcessed(state.iterations() * 20000);
  state.counters["matches"] = static_cast<double>(outputs);
}

void BM_Negation_On(benchmark::State& state) {
  const auto& stream = Stream(state.range(0));
  uint64_t outputs = 0, rejected = 0, examined = 0;
  for (auto _ : state) {
    BenchPlan plan(kWithNegation, PlanOptions{});
    plan.Run(stream);
    outputs = plan.outputs;
    rejected = plan.plan->negation().stats().matches_rejected;
    examined = plan.plan->negation().stats().candidates_examined;
  }
  state.SetItemsProcessed(state.iterations() * 20000);
  state.counters["matches"] = static_cast<double>(outputs);
  state.counters["rejected"] = static_cast<double>(rejected);
  state.counters["candidates"] = static_cast<double>(examined);
}

void BM_Negation_On_UnpartitionedBuffer(benchmark::State& state) {
  const auto& stream = Stream(state.range(0));
  PlanOptions options;
  options.use_partitioning = false;
  uint64_t outputs = 0, examined = 0;
  for (auto _ : state) {
    BenchPlan plan(kWithNegation, options);
    plan.Run(stream);
    outputs = plan.outputs;
    examined = plan.plan->negation().stats().candidates_examined;
  }
  state.SetItemsProcessed(state.iterations() * 20000);
  state.counters["matches"] = static_cast<double>(outputs);
  state.counters["candidates"] = static_cast<double>(examined);
}

// Sweep the share of counter (negated-type) events: 10% .. 60%.
BENCHMARK(BM_Negation_Off)->Arg(10)->Arg(30)->Arg(60)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Negation_On)->Arg(10)->Arg(30)->Arg(60)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Negation_On_UnpartitionedBuffer)
    ->Arg(10)->Arg(30)->Arg(60)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace sase

BENCHMARK_MAIN();
