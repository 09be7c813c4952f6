// Experiment E6: cleaning-layer throughput.
//
// §1 requires that "filtering, pattern matching, and aggregation must all
// be performed with low latency" despite noisy readers. This bench pushes
// pre-generated raw readings through the Cleaning and Association pipeline
// (all five sub-layers) and through each error-handling layer in isolation,
// sweeping the noise rate. Expected shape: per-reading cost is flat in the
// noise rate (each layer is O(1) per reading) and far above the demo's
// reader rates.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "cleaning/pipeline.h"
#include "rfid/simulator.h"

namespace sase {
namespace bench {
namespace {

/// Pre-generates raw readings by running the simulator with `noise_pct`
/// percent miss/duplicate/anomaly rates.
const std::vector<RawReading>& Readings(int64_t noise_pct) {
  static std::map<int64_t, std::vector<RawReading>>* cache =
      new std::map<int64_t, std::vector<RawReading>>();
  auto it = cache->find(noise_pct);
  if (it == cache->end()) {
    double rate = static_cast<double>(noise_pct) / 100.0;
    NoiseModel noise{.miss_rate = rate / 2,
                     .truncation_rate = rate / 4,
                     .spurious_rate = rate / 4,
                     .duplicate_rate = rate};
    StoreLayout layout = StoreLayout::RetailDemo();
    RetailSimulator sim(layout, noise, /*seed=*/noise_pct + 1, 1000);

    class Collector : public ReadingSink {
     public:
      void OnReading(const RawReading& reading) override {
        readings.push_back(reading);
      }
      std::vector<RawReading> readings;
    } collector;
    sim.set_sink(&collector);
    for (int i = 0; i < 200; ++i) {
      sim.AddItem(TagInfo{MakeEpc(i), "P" + std::to_string(i % 10), "", true});
      sim.Place(MakeEpc(i), i % 4);
    }
    sim.RunUntil(300);
    it = cache->emplace(noise_pct, std::move(collector.readings)).first;
  }
  return it->second;
}

CleaningPipeline::Config PipelineConfig() {
  StoreLayout layout = StoreLayout::RetailDemo();
  CleaningPipeline::Config config;
  for (const auto& reader : layout.readers()) {
    config.anomaly.valid_readers.insert(reader.id);
  }
  config.smoothing.window = 3000;
  config.smoothing.sampling_interval = 1000;
  config.time.raw_units_per_tick = 1000;
  config.dedup.reader_to_area = layout.ReaderToArea();
  config.generation.area_to_event_type = layout.AreaToEventType();
  return config;
}

class NullEventSink : public EventSink {
 public:
  void OnEvent(const EventPtr&) override { ++count; }
  uint64_t count = 0;
};

class NullReadingSink : public ReadingSink {
 public:
  void OnReading(const RawReading&) override { ++count; }
  uint64_t count = 0;
};

void BM_Cleaning_FullPipeline(benchmark::State& state) {
  const auto& readings = Readings(state.range(0));
  uint64_t events = 0;
  for (auto _ : state) {
    NullEventSink sink;
    CleaningPipeline pipeline(PipelineConfig(), &BenchCatalog(), nullptr, &sink);
    for (const auto& reading : readings) pipeline.OnReading(reading);
    pipeline.OnFlush();
    events = sink.count;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(readings.size()));
  state.counters["readings"] = static_cast<double>(readings.size());
  state.counters["events_out"] = static_cast<double>(events);
}

void BM_Cleaning_AnomalyFilterOnly(benchmark::State& state) {
  const auto& readings = Readings(state.range(0));
  AnomalyFilter::Config config;
  config.valid_readers = {0, 1, 2, 3};
  for (auto _ : state) {
    NullReadingSink sink;
    AnomalyFilter filter(config, &sink);
    for (const auto& reading : readings) filter.OnReading(reading);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(readings.size()));
}

void BM_Cleaning_SmoothingOnly(benchmark::State& state) {
  const auto& readings = Readings(state.range(0));
  for (auto _ : state) {
    NullReadingSink sink;
    TemporalSmoothing smoothing({.window = 3000, .sampling_interval = 1000},
                                &sink);
    for (const auto& reading : readings) smoothing.OnReading(reading);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(readings.size()));
}

void BM_Cleaning_DeduplicationOnly(benchmark::State& state) {
  const auto& readings = Readings(state.range(0));
  StoreLayout layout = StoreLayout::RetailDemo();
  for (auto _ : state) {
    NullReadingSink sink;
    Deduplication dedup({.reader_to_area = layout.ReaderToArea(), .horizon = 0},
                        &sink);
    for (const auto& reading : readings) dedup.OnReading(reading);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(readings.size()));
}

// Noise sweep: clean, realistic, harsh.
BENCHMARK(BM_Cleaning_FullPipeline)->Arg(0)->Arg(10)->Arg(40)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cleaning_AnomalyFilterOnly)->Arg(10)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cleaning_SmoothingOnly)->Arg(10)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cleaning_DeduplicationOnly)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace sase

BENCHMARK_MAIN();
