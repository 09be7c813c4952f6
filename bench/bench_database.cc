// Experiment E8: event database and track-and-trace.
//
// §4 runs "track-and-trace queries over an event database populated with
// data collected in advance". This bench populates location/containment
// history from the warehouse workload generator and measures:
//   - archival ingest rate (UpdateLocation/UpdateContainment),
//   - current-location / movement-history point queries (indexed),
//   - the same access path via the SQL layer, with and without an index.
// Expected shape: indexed lookups stay flat as history grows; unindexed
// SQL scans grow linearly.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "db/archiver.h"
#include "db/sql_executor.h"
#include "db/track_trace.h"

namespace sase {
namespace bench {
namespace {

using db::Archiver;
using db::Database;
using db::SqlExecutor;
using db::TrackTrace;

/// Populates an archive database with `items` item histories.
std::unique_ptr<Database> Populate(int64_t items) {
  auto database = std::make_unique<Database>();
  Archiver archiver(database.get());
  WarehouseConfig config;
  config.item_count = items;
  config.container_count = std::max<int64_t>(1, items / 10);
  WarehouseHistoryGenerator generator(&BenchCatalog(), config);
  for (const auto& event : generator.Generate()) {
    const EventSchema& schema = BenchCatalog().schema(event->type());
    std::string tag = event->attribute(schema.FindAttribute("TagId")).AsString();
    int64_t area = event->attribute(schema.FindAttribute("AreaId")).AsInt();
    (void)archiver.UpdateLocation(tag, area, event->timestamp());
    AttrIndex cont = schema.FindAttribute("ContainerId");
    if (cont != kInvalidAttr && !event->attribute(cont).is_null()) {
      (void)archiver.UpdateContainment(tag, event->attribute(cont).AsString(),
                                       event->timestamp());
    }
  }
  return database;
}

void BM_Database_ArchivalIngest(benchmark::State& state) {
  int64_t items = state.range(0);
  WarehouseConfig config;
  config.item_count = items;
  WarehouseHistoryGenerator generator(&BenchCatalog(), config);
  auto events = generator.Generate();
  uint64_t rows = 0;
  for (auto _ : state) {
    Database database;
    Archiver archiver(&database);
    for (const auto& event : events) {
      const EventSchema& schema = BenchCatalog().schema(event->type());
      std::string tag =
          event->attribute(schema.FindAttribute("TagId")).AsString();
      int64_t area = event->attribute(schema.FindAttribute("AreaId")).AsInt();
      (void)archiver.UpdateLocation(tag, area, event->timestamp());
    }
    rows = database.GetTable("location_history")->row_count();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
  state.counters["history_rows"] = static_cast<double>(rows);
}

void BM_Database_CurrentLocation(benchmark::State& state) {
  int64_t items = state.range(0);
  auto database = Populate(items);
  TrackTrace trace(database.get());
  int64_t i = 0;
  for (auto _ : state) {
    auto stay = trace.CurrentLocation(MakeEpc(i++ % items));
    benchmark::DoNotOptimize(stay);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["history_rows"] = static_cast<double>(
      database->GetTable("location_history")->row_count());
}

void BM_Database_MovementHistory(benchmark::State& state) {
  int64_t items = state.range(0);
  auto database = Populate(items);
  TrackTrace trace(database.get());
  int64_t i = 0;
  for (auto _ : state) {
    auto movement = trace.MovementHistory(MakeEpc(i++ % items));
    benchmark::DoNotOptimize(movement);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Database_SqlIndexedPoint(benchmark::State& state) {
  int64_t items = state.range(0);
  auto database = Populate(items);  // TagId index exists
  SqlExecutor executor(database.get());
  int64_t i = 0;
  for (auto _ : state) {
    auto result = executor.Execute(
        "SELECT AreaId FROM location_history WHERE TagId = '" +
        MakeEpc(i++ % items) + "' AND TimeOut IS NULL");
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rows_examined"] = static_cast<double>(executor.rows_examined());
}

void BM_Database_SqlScanPoint(benchmark::State& state) {
  int64_t items = state.range(0);
  auto database = Populate(items);
  SqlExecutor executor(database.get());
  int64_t i = 0;
  for (auto _ : state) {
    // AreaId has no index: forces a full scan with the same result shape.
    auto result = executor.Execute(
        "SELECT TagId FROM location_history WHERE TimeIn >= 0 AND TimeOut IS "
        "NULL AND AreaId = " + std::to_string(i++ % 4));
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rows_examined"] = static_cast<double>(executor.rows_examined());
}

BENCHMARK(BM_Database_ArchivalIngest)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Database_CurrentLocation)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Database_MovementHistory)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Database_SqlIndexedPoint)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Database_SqlScanPoint)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace sase

BENCHMARK_MAIN();
