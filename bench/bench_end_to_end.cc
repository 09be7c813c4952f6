// Experiment E7: end-to-end system throughput.
//
// The full Figure-1 stack — simulator readers -> cleaning -> event bus ->
// complex event processor (+ archiving into the event database) — driven by
// a randomized retail day with shoppers, shoplifters and misplacements.
// Reports raw readings processed per wall-second. §1's claim: the stack
// keeps up with reader rates. Reading-to-alert latency is timed from
// outside the process by perfbench/.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "system/sase_system.h"
#include "util/random.h"

namespace sase {
namespace bench {
namespace {

constexpr const char* kShopliftingQuery =
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
    "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 12 hours "
    "RETURN x.TagId, z.AreaId, z.Timestamp";

constexpr const char* kArchivingRule =
    "EVENT ANY(SHELF_READING s) "
    "RETURN _updateLocation(s.TagId, s.AreaId, s.Timestamp)";

void BM_EndToEnd_RetailDay(benchmark::State& state) {
  int64_t items = state.range(0);
  uint64_t alerts = 0, readings = 0, events = 0;
  for (auto _ : state) {
    // System construction, query registration and scenario scripting are
    // setup; the measured region is RunUntil + Flush — the actual
    // reader -> cleaning -> processor pipeline.
    state.PauseTiming();
    SystemConfig config;
    config.noise = NoiseModel{.miss_rate = 0.05,
                              .truncation_rate = 0.01,
                              .spurious_rate = 0.005,
                              .duplicate_rate = 0.02};
    config.seed = 7;
    SaseSystem system(StoreLayout::RetailDemo(), config);

    uint64_t alert_count = 0;
    (void)system.RegisterMonitoringQuery(
        "shoplifting", kShopliftingQuery,
        [&alert_count](const OutputRecord&) { ++alert_count; });
    (void)system.RegisterArchivingRule("location", kArchivingRule);

    const StoreLayout& layout = system.simulator().layout();
    auto shelves = layout.AreasByKind(AreaKind::kShelf);
    int counter = layout.FindAreaByKind(AreaKind::kCounter);
    int exit = layout.FindAreaByKind(AreaKind::kExit);

    Random rng(99);
    ScenarioScripter scripter(&system.simulator());
    int64_t t = 1;
    for (int64_t i = 0; i < items; ++i) {
      system.AddProduct({MakeEpc(i), "P" + std::to_string(i % 20), "", true});
      int shelf = static_cast<int>(shelves[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(shelves.size()) - 1))]);
      double dice = rng.NextDouble();
      if (dice < 0.05) {
        scripter.Shoplift(MakeEpc(i), shelf, exit, t, rng.Uniform(2, 6));
      } else if (dice < 0.55) {
        scripter.Purchase(MakeEpc(i), shelf, counter, exit, t,
                          rng.Uniform(2, 6), rng.Uniform(1, 3));
      } else {
        scripter.Restock(MakeEpc(i), shelf, t);
      }
      t += rng.Uniform(0, 2);
    }
    state.ResumeTiming();
    system.RunUntil(t + 20);
    system.Flush();
    alerts = alert_count;
    readings = system.simulator().readings_emitted();
    events = system.engine().events_processed();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(readings));
  state.counters["alerts"] = static_cast<double>(alerts);
  state.counters["raw_readings"] = static_cast<double>(readings);
  state.counters["clean_events"] = static_cast<double>(events);
}

BENCHMARK(BM_EndToEnd_RetailDay)
    ->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace sase

BENCHMARK_MAIN();
