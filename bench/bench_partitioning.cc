// Experiment E2: intermediate result sets / PAIS.
//
// §2.1.2: "Large intermediate result sets also strongly affect query
// processing. To reduce intermediate results, we strategically push some of
// the predicates and windows down to the sequence operators; the
// optimizations are based on indexing relevant events both in temporal
// order and across value-based partitions."
//
// The sweep varies tag cardinality (1 .. 10,000 distinct tags) on a fixed
// stream and compares:
//   PAIS - stacks partitioned by the TagId equivalence class [default]
//   Flat - single stack set; equality enforced by Selection afterwards
// Expected shape: Flat degrades sharply as cardinality grows (construction
// enumerates cross-tag sequences only to discard them above); PAIS improves
// with cardinality because each partition shrinks.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace sase {
namespace bench {
namespace {

constexpr const char* kQuery =
    "EVENT SEQ(SHELF_READING x, COUNTER_READING y, EXIT_READING z) "
    "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 100";

void RunWithOptions(benchmark::State& state, bool use_partitioning) {
  int64_t tags = state.range(0);
  SyntheticConfig config;
  config.seed = 23;
  config.event_count = 20000;
  config.tag_count = tags;
  const auto& stream = CachedStream(config, "p" + std::to_string(tags));

  PlanOptions options;
  options.use_partitioning = use_partitioning;

  uint64_t outputs = 0, constructed = 0, selection_in = 0;
  for (auto _ : state) {
    BenchPlan plan(kQuery, options);
    plan.Run(stream);
    outputs = plan.outputs;
    constructed = plan.plan->sequence_scan().stats().matches_emitted;
    selection_in = plan.plan->selection().matches_in();
  }
  state.SetItemsProcessed(state.iterations() * config.event_count);
  state.counters["matches"] = static_cast<double>(outputs);
  // The experiment's headline number: sequences constructed by the scan =
  // the intermediate result set handed to the relational operators.
  state.counters["intermediate"] = static_cast<double>(selection_in);
  (void)constructed;
}

void BM_Partitioning_PAIS(benchmark::State& state) {
  RunWithOptions(state, /*use_partitioning=*/true);
}

void BM_Partitioning_Flat(benchmark::State& state) {
  RunWithOptions(state, /*use_partitioning=*/false);
}

BENCHMARK(BM_Partitioning_PAIS)
    ->Arg(1)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Partitioning_Flat)
    ->Arg(1)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Zipf-skewed tag popularity: hot partitions stay large, so PAIS's win
// shrinks but remains. (The paper's retail data is similarly skewed: a few
// fast-moving products dominate readings.)
void BM_Partitioning_PAIS_Zipf(benchmark::State& state) {
  SyntheticConfig config;
  config.seed = 29;
  config.event_count = 20000;
  config.tag_count = state.range(0);
  config.zipf_s = 1.1;
  const auto& stream =
      CachedStream(config, "pz" + std::to_string(state.range(0)));
  PlanOptions options;
  uint64_t outputs = 0;
  for (auto _ : state) {
    BenchPlan plan(kQuery, options);
    plan.Run(stream);
    outputs = plan.outputs;
  }
  state.SetItemsProcessed(state.iterations() * config.event_count);
  state.counters["matches"] = static_cast<double>(outputs);
}

BENCHMARK(BM_Partitioning_PAIS_Zipf)
    ->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace sase

BENCHMARK_MAIN();
