// Experiment E1: large sliding windows.
//
// §2.1.2: "Large sliding windows spanning hours or days are commonly used
// in monitoring applications. Sequence generation from events widely
// dispersed in such windows can be an expensive operation. To address this
// issue, we develop optimizations that employ novel sequence indexes to
// expedite the sequence operators."
//
// The sweep runs the Q1-shaped query over a fixed 100k-event stream while
// the WITHIN window grows from 100 to 100k ticks, comparing:
//   Pushdown  - window pushed into SequenceScan (stack pruning) [default]
//   NoPushdown- window enforced only by the WindowFilter above
//   BruteForce- the ReferenceMatcher baseline (small windows only; it is
//               O(n^k) and stands in for non-incremental evaluation)
// Expected shape: Pushdown stays near-flat as W grows; NoPushdown degrades
// because stacks never shrink and construction walks ever more instances.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "engine/reference_matcher.h"

namespace sase {
namespace bench {
namespace {

constexpr const char* kQuery =
    "EVENT SEQ(SHELF_READING x, COUNTER_READING y, EXIT_READING z) "
    "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN ";

SyntheticConfig StreamConfig(int64_t events) {
  SyntheticConfig config;
  config.seed = 11;
  config.event_count = events;
  // Cardinality scales with the stream so per-tag density stays constant
  // (~50 events/tag); the all-matches semantics would otherwise explode
  // combinatorially at the full-stream window sizes.
  config.tag_count = std::max<int64_t>(1, events / 50);
  config.area_count = 4;
  return config;
}

void RunWithOptions(benchmark::State& state, bool push_window) {
  int64_t window = state.range(0);
  int64_t events = state.range(1);
  const auto& stream =
      CachedStream(StreamConfig(events), "w" + std::to_string(events));
  PlanOptions options;
  options.push_window = push_window;

  uint64_t outputs = 0, peak = 0;
  for (auto _ : state) {
    BenchPlan plan(kQuery + std::to_string(window), options);
    plan.Run(stream);
    outputs = plan.outputs;
    peak = plan.plan->sequence_scan().stats().peak_instances;
  }
  state.SetItemsProcessed(state.iterations() * events);
  state.counters["matches"] = static_cast<double>(outputs);
  state.counters["peak_instances"] = static_cast<double>(peak);
}

void BM_Window_Pushdown(benchmark::State& state) {
  RunWithOptions(state, /*push_window=*/true);
}

void BM_Window_NoPushdown(benchmark::State& state) {
  RunWithOptions(state, /*push_window=*/false);
}

void BM_Window_BruteForce(benchmark::State& state) {
  int64_t window = state.range(0);
  int64_t events = state.range(1);
  const auto& stream =
      CachedStream(StreamConfig(events), "w" + std::to_string(events));
  auto parsed = Parser::Parse(kQuery + std::to_string(window));
  Analyzer analyzer(&BenchCatalog(), TimeConfig{});
  AnalyzedQuery analyzed = analyzer.Analyze(std::move(parsed).value()).value();
  FunctionRegistry functions;
  uint64_t outputs = 0;
  for (auto _ : state) {
    ReferenceMatcher reference(&analyzed, &functions);
    auto matches = reference.FindMatches(stream);
    outputs = matches.ok() ? matches.value().size() : 0;
  }
  state.SetItemsProcessed(state.iterations() * events);
  state.counters["matches"] = static_cast<double>(outputs);
}

// Window sweep over a 50k-event stream (about 50k ticks long).
BENCHMARK(BM_Window_Pushdown)
    ->Args({100, 50000})->Args({1000, 50000})->Args({10000, 50000})
    ->Args({50000, 50000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Window_NoPushdown)
    ->Args({100, 50000})->Args({1000, 50000})->Args({10000, 50000})
    ->Args({50000, 50000})
    ->Unit(benchmark::kMillisecond);
// Brute force only at small scale: it enumerates every (x, y, z) triple.
BENCHMARK(BM_Window_BruteForce)
    ->Args({100, 1000})->Args({1000, 1000})->Args({10000, 1000})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace sase

BENCHMARK_MAIN();
