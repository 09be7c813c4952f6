// Sharded execution runtime scaling (src/runtime/).
//
// The multi-query experiment E9 shows serial throughput degrading ~1/Q as
// queries are added: every event visits every plan on one core. The sharded
// runtime routes events by TagId across N workers, each owning a private
// QueryEngine with the full query set, so the per-event work spreads over N
// cores while the OutputMerger keeps results byte-identical to serial
// execution. Sweep the shard count on the 64-query workload and compare
// against the serial baseline; on an M-core machine, expect throughput to
// approach min(N, M)x serial (minus routing + merge overhead, measured by
// the 1-shard point).

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"
#include "runtime/sharded_runtime.h"

namespace sase {
namespace bench {
namespace {

constexpr int64_t kQueries = 64;
constexpr int64_t kEventCount = 10000;

/// The same query family as bench_multi_query: TagId-equivalent shoplifting
/// variants, all shardable.
std::string QueryVariant(int64_t i) {
  return "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
         "WHERE x.TagId = y.TagId AND x.TagId = z.TagId AND z.AreaId >= " +
         std::to_string(i % 4) + " WITHIN " + std::to_string(200 + 10 * i);
}

const std::vector<EventPtr>& Stream() {
  SyntheticConfig config;
  config.seed = 53;
  config.event_count = kEventCount;
  config.tag_count = 100;
  return CachedStream(config, "sharded");
}

/// Serial baseline: one QueryEngine on the dispatcher thread. The 64
/// variants differ only in predicate constants and WITHIN spans, so with
/// multi-query sharing (state.range(0) = 1) they all ride one shared NFA;
/// output is byte-identical either way (total_alerts pins it).
void BM_Serial64Queries(benchmark::State& state) {
  const auto& stream = Stream();
  const bool sharing = state.range(0) != 0;
  uint64_t outputs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    QueryEngine engine(&BenchCatalog());
    engine.set_scan_sharing(sharing);
    uint64_t count = 0;
    for (int64_t i = 0; i < kQueries; ++i) {
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
  state.SetItemsProcessed(state.iterations() * kEventCount);
  state.counters["sharing"] = static_cast<double>(sharing ? 1 : 0);
  state.counters["total_alerts"] = static_cast<double>(outputs);
}

BENCHMARK(BM_Serial64Queries)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Sharded runtime at state.range(0) shards, same workload, with scan
/// sharing in every worker engine when state.range(1) = 1. As in the serial
/// baseline only the feed and flush are timed: construction, registration
/// and thread start happen before the timed region, and the teardown that
/// joins the workers after it, so BM_Sharded64Queries/<n>/<sharing>
/// compares directly with BM_Serial64Queries/<sharing>.
void BM_Sharded64Queries(benchmark::State& state) {
  const auto& stream = Stream();
  const bool sharing = state.range(1) != 0;
  uint64_t outputs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    RuntimeConfig config;
    config.shard_count = static_cast<int>(state.range(0));
    config.scan_sharing = sharing;
    auto runtime = std::make_unique<ShardedRuntime>(&BenchCatalog(), config);
    uint64_t count = 0;
    for (int64_t i = 0; i < kQueries; ++i) {
      auto id = runtime->Register(QueryVariant(i),
                                  [&count](const OutputRecord&) { ++count; });
      if (!id.ok()) {
        state.SkipWithError(id.status().ToString().c_str());
        return;
      }
      if (!runtime->IsSharded(id.value())) {
        state.SkipWithError("workload query unexpectedly not shardable");
        return;
      }
    }
    state.ResumeTiming();
    for (const auto& event : stream) runtime->OnEvent(event);
    runtime->OnFlush();
    state.PauseTiming();
    outputs = count;
    runtime.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kEventCount);
  state.counters["shards"] = static_cast<double>(state.range(0));
  state.counters["sharing"] = static_cast<double>(sharing ? 1 : 0);
  state.counters["total_alerts"] = static_cast<double>(outputs);
}

BENCHMARK(BM_Sharded64Queries)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Dispatch-path overhead in isolation: shards with zero registered queries
/// measure routing + dispatch-log cost per event.
void BM_DispatchOverhead(benchmark::State& state) {
  const auto& stream = Stream();
  for (auto _ : state) {
    RuntimeConfig config;
    config.shard_count = static_cast<int>(state.range(0));
    ShardedRuntime runtime(&BenchCatalog(), config);
    uint64_t count = 0;
    auto id = runtime.Register("EVENT SHELF_READING s WHERE s.AreaId > 99 "
                               "RETURN s.TagId",
                               [&count](const OutputRecord&) { ++count; });
    if (!id.ok()) {
      state.SkipWithError(id.status().ToString().c_str());
      return;
    }
    for (const auto& event : stream) runtime.OnEvent(event);
    runtime.OnFlush();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kEventCount);
}

BENCHMARK(BM_DispatchOverhead)
    ->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Long-stream memory bound: the dispatch log once grew 16 B/event forever;
/// prefix compaction below the merge watermark keeps it at O(in-flight
/// window), so the peak_log counter stays at the rounds the rings can hold
/// (at most queue_capacity + 1 per worker) instead of ~kLongStreamEvents
/// entries.
void BM_LongStreamDispatchLog(benchmark::State& state) {
  constexpr int64_t kLongStreamEvents = 200000;
  SyntheticConfig stream_config;
  stream_config.seed = 97;
  stream_config.event_count = kLongStreamEvents;
  stream_config.tag_count = 200;
  const auto& stream = CachedStream(stream_config, "long");

  size_t peak = 0, final_len = 0;
  uint64_t compactions = 0;
  for (auto _ : state) {
    RuntimeConfig config;
    config.shard_count = 4;
    config.merge_interval = 1024;
    ShardedRuntime runtime(&BenchCatalog(), config);
    uint64_t count = 0;
    auto id = runtime.Register(QueryVariant(0),
                               [&count](const OutputRecord&) { ++count; });
    if (!id.ok()) {
      state.SkipWithError(id.status().ToString().c_str());
      return;
    }
    for (const auto& event : stream) runtime.OnEvent(event);
    peak = runtime.peak_dispatch_log_len();
    final_len = runtime.dispatch_log_len();
    compactions = runtime.log_compactions();
    runtime.OnFlush();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kLongStreamEvents);
  state.counters["peak_log"] = static_cast<double>(peak);
  state.counters["final_log"] = static_cast<double>(final_len);
  state.counters["compactions"] = static_cast<double>(compactions);
}

BENCHMARK(BM_LongStreamDispatchLog)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Resize cost: run the 64-query workload and re-partition
/// mid-stream every state.range(0) events (0 = never, the baseline). The
/// delta against the baseline is the quiesce + state hand-off +
/// thread-restart cost of each resize.
void BM_ResizeMidStream(benchmark::State& state) {
  const auto& stream = Stream();
  const int64_t resize_every = state.range(0);
  uint64_t outputs = 0, resizes = 0;
  for (auto _ : state) {
    RuntimeConfig config;
    config.shard_count = 2;
    ShardedRuntime runtime(&BenchCatalog(), config);
    uint64_t count = 0;
    for (int64_t i = 0; i < kQueries; ++i) {
      auto id = runtime.Register(QueryVariant(i),
                                 [&count](const OutputRecord&) { ++count; });
      if (!id.ok()) {
        state.SkipWithError(id.status().ToString().c_str());
        return;
      }
    }
    // Alternate 2 <-> 4 shards so the run exercises both grow and shrink.
    int64_t fed = 0;
    for (const auto& event : stream) {
      if (resize_every > 0 && fed > 0 && fed % resize_every == 0) {
        int target = runtime.shard_count() == 2 ? 4 : 2;
        if (!runtime.Resize(target).ok()) {
          state.SkipWithError("resize failed");
          return;
        }
      }
      runtime.OnEvent(event);
      ++fed;
    }
    runtime.OnFlush();
    outputs = count;
    resizes = runtime.resize_count();
  }
  state.SetItemsProcessed(state.iterations() * kEventCount);
  state.counters["total_alerts"] = static_cast<double>(outputs);
  state.counters["resizes"] = static_cast<double>(resizes);
}

BENCHMARK(BM_ResizeMidStream)
    ->Arg(0)->Arg(5000)->Arg(1000)
    ->ArgNames({"resize_every"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The skew workload's query family: a three-slot positive sequence whose
/// equivalence class covers AreaId on every component as well as TagId.
/// Still shardable by TagId — and because matches only ever combine
/// same-area events, the hot-key mitigation may legally sub-partition a
/// hot tag by (TagId, AreaId). Three positive slots make the hot
/// partition's live state QUADRATIC in partition density: every COUNTER
/// extends every in-window SHELF into a stored partial run, and every
/// EXIT then scans those pairs — so a 4-way sub-partition cuts the scan
/// ~16x (density squared), well past what a two-slot family's linear
/// state (~4x) can show. The ProductName equality keeps that scan from
/// turning into an output explosion: it is checked at completion, so
/// almost all scanned pairs are rejected after being counted — the cost
/// stays, the merger does not drown in alerts.
std::string CoveringQueryVariant(int64_t i) {
  return "EVENT SEQ(SHELF_READING x, COUNTER_READING m, EXIT_READING z) "
         "WHERE x.TagId = m.TagId AND x.TagId = z.TagId "
         "AND x.AreaId = m.AreaId AND x.AreaId = z.AreaId "
         "AND x.ProductName = z.ProductName "
         "AND z.AreaId = " + std::to_string(i % 4) +
         " WITHIN " + std::to_string(120 + 4 * i);
}

/// Skewed-load behavior: state.range(0) percent of events carry one hot
/// tag, the rest spread over 100 tags. Key-hash sharding cannot split a
/// single key's partition, so the hot shard bottlenecks the fleet — and
/// its value partition's pair enumeration grows quadratically with the
/// hot share. state.range(1) turns the hot-key mitigation on: the runtime
/// detects the hot tag from its sketch share and sub-partitions it by
/// (TagId, AreaId) — sound here because the query family covers AreaId —
/// which cuts the quadratic partition state even on one core. The
/// mitigation-on/off pair at 90% hot is the headline number (gated >= 3x
/// by scripts/check_bench_regress.py --expect-speedup in CI). The pair is
/// measured on process CPU time, not wall time: the work the mitigation
/// eliminates is the contract, and process CPU is insensitive to runner
/// core count and to co-tenant noise inflating the multi-threaded
/// mitigated run's wall clock.
void BM_SkewedLoad(benchmark::State& state) {
  SyntheticConfig stream_config;
  stream_config.seed = 71;
  stream_config.event_count = kEventCount;
  stream_config.tag_count = 100;
  const auto& base = CachedStream(stream_config, "skew_base");
  // Rewrite a fraction of the stream onto one hot tag, preserving
  // timestamps and seqs (stream order is untouched).
  const int64_t hot_percent = state.range(0);
  std::vector<EventPtr> stream;
  stream.reserve(base.size());
  {
    const Catalog& catalog = BenchCatalog();
    int64_t i = 0;
    for (const auto& event : base) {
      if (i++ % 100 < hot_percent) {
        const EventSchema& schema = catalog.schema(event->type());
        EventBuilder b(catalog, schema.name());
        AttrIndex area = schema.FindAttribute("AreaId");
        AttrIndex prod = schema.FindAttribute("ProductName");
        b.Set("TagId", "HOT_TAG");
        if (area >= 0) b.Set("AreaId", event->attribute(area));
        // Keep the original high-cardinality ProductName: the query
        // family's completion predicate needs it to stay selective.
        if (prod >= 0) b.Set("ProductName", event->attribute(prod));
        auto rebuilt = b.Build(event->timestamp(), event->seq());
        if (!rebuilt.ok()) {
          state.SkipWithError("rebuild failed");
          return;
        }
        stream.push_back(rebuilt.value());
      } else {
        stream.push_back(event);
      }
    }
  }
  const bool mitigation = state.range(1) != 0;
  uint64_t outputs = 0, splits = 0, refusals = 0;
  for (auto _ : state) {
    RuntimeConfig config;
    config.shard_count = 4;
    config.hotkey_mitigation = mitigation;
    config.hotkey_min_events = 512;
    config.hotkey_split_threshold = 40;
    ShardedRuntime runtime(&BenchCatalog(), config);
    uint64_t count = 0;
    for (int64_t i = 0; i < kQueries; ++i) {
      auto id = runtime.Register(CoveringQueryVariant(i),
                                 [&count](const OutputRecord&) { ++count; });
      if (!id.ok()) {
        state.SkipWithError(id.status().ToString().c_str());
        return;
      }
    }
    for (const auto& event : stream) runtime.OnEvent(event);
    runtime.OnFlush();
    outputs = count;
    splits = runtime.hotkey_active_splits();
    refusals = runtime.hotkey_split_refusals();
  }
  state.SetItemsProcessed(state.iterations() * kEventCount);
  state.counters["total_alerts"] = static_cast<double>(outputs);
  state.counters["splits"] = static_cast<double>(splits);
  state.counters["refused"] = static_cast<double>(refusals);
}

BENCHMARK(BM_SkewedLoad)
    ->Args({0, 0})->Args({50, 0})->Args({90, 0})->Args({90, 1})
    ->ArgNames({"hot_percent", "mitigation"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

}  // namespace
}  // namespace bench
}  // namespace sase

BENCHMARK_MAIN();
