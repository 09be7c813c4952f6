// Experiment E9: multi-query engine scaling.
//
// §3: the complex event processor hosts many continuous queries at once
// (monitoring queries + archiving rules), each receiving every event.
// Sweep the number of registered queries 1..64 over one stream. Expected
// shape: throughput scales ~1/Q (each event visits every plan), with a
// small constant because non-matching types exit the scan immediately.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace sase {
namespace bench {
namespace {

/// A family of shoplifting-style queries with slightly different windows
/// and area filters so plans are not identical.
std::string QueryVariant(int64_t i) {
  return "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
         "WHERE x.TagId = y.TagId AND x.TagId = z.TagId AND z.AreaId >= " +
         std::to_string(i % 4) + " WITHIN " + std::to_string(200 + 10 * i);
}

void BM_MultiQuery(benchmark::State& state) {
  int64_t queries = state.range(0);
  SyntheticConfig config;
  config.seed = 53;
  config.event_count = 10000;
  config.tag_count = 100;
  const auto& stream = CachedStream(config, "mq");

  uint64_t outputs = 0;
  for (auto _ : state) {
    // Engine construction and query compilation are setup, not the measured
    // event path — keep them off the clock so items/s reports stream
    // throughput alone.
    state.PauseTiming();
    QueryEngine engine(&BenchCatalog());
    uint64_t count = 0;
    for (int64_t i = 0; i < queries; ++i) {
      auto id = engine.Register(QueryVariant(i),
                                [&count](const OutputRecord&) { ++count; });
      if (!id.ok()) {
        state.SkipWithError(id.status().ToString().c_str());
        return;
      }
    }
    state.ResumeTiming();
    for (const auto& event : stream) engine.OnEvent(event);
    engine.OnFlush();
    outputs = count;
  }
  state.SetItemsProcessed(state.iterations() * config.event_count);
  state.counters["queries"] = static_cast<double>(queries);
  state.counters["total_alerts"] = static_cast<double>(outputs);
}

BENCHMARK(BM_MultiQuery)
    ->Arg(1)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Mixed workload: half pattern queries, half single-event projections with
// aggregates — the demo's monitoring + archiving mixture.
void BM_MultiQuery_Mixed(benchmark::State& state) {
  int64_t queries = state.range(0);
  SyntheticConfig config;
  config.seed = 59;
  config.event_count = 10000;
  config.tag_count = 100;
  const auto& stream = CachedStream(config, "mqm");
  uint64_t outputs = 0;
  for (auto _ : state) {
    state.PauseTiming();  // compilation is setup; see BM_MultiQuery
    QueryEngine engine(&BenchCatalog());
    uint64_t count = 0;
    for (int64_t i = 0; i < queries; ++i) {
      std::string text =
          (i % 2 == 0)
              ? QueryVariant(i)
              : "EVENT SHELF_READING s WHERE s.AreaId = " +
                    std::to_string(i % 4) + " RETURN s.TagId, COUNT(*)";
      auto id = engine.Register(text, [&count](const OutputRecord&) { ++count; });
      if (!id.ok()) {
        state.SkipWithError(id.status().ToString().c_str());
        return;
      }
    }
    state.ResumeTiming();
    for (const auto& event : stream) engine.OnEvent(event);
    engine.OnFlush();
    outputs = count;
  }
  state.SetItemsProcessed(state.iterations() * config.event_count);
  state.counters["total_outputs"] = static_cast<double>(outputs);
}

BENCHMARK(BM_MultiQuery_Mixed)
    ->Arg(2)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace sase

BENCHMARK_MAIN();
