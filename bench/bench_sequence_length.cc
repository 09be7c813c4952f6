// Experiment E5: NFA sequence-scan scaling with pattern arity.
//
// SEQ patterns of length 2..6 over the six retail event types, with the
// TagId equivalence chain across all components. Expected shape: with PAIS
// + window pushdown, throughput decays gently with arity (each event
// touches at most one extra stack); match counts shrink as patterns get
// more selective.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace sase {
namespace bench {
namespace {

const char* kTypes[] = {"SHELF_READING", "COUNTER_READING", "EXIT_READING",
                        "BACKROOM_READING", "LOAD_READING", "UNLOAD_READING"};

std::string Query(int64_t length) {
  std::string pattern, where;
  for (int64_t i = 0; i < length; ++i) {
    if (i > 0) pattern += ", ";
    pattern += std::string(kTypes[i]) + " v" + std::to_string(i);
    if (i > 0) {
      if (i > 1) where += " AND ";
      where += "v0.TagId = v" + std::to_string(i) + ".TagId";
    }
  }
  std::string query = "EVENT SEQ(" + pattern + ")";
  if (!where.empty()) query += " WHERE " + where;
  query += " WITHIN 200";
  return query;
}

const std::vector<EventPtr>& Stream() {
  SyntheticConfig config;
  config.seed = 41;
  config.event_count = 30000;
  config.tag_count = 50;
  config.type_weights.clear();
  for (const char* type : kTypes) config.type_weights.emplace_back(type, 1.0);
  return CachedStream(config, "len");
}

void BM_SequenceLength(benchmark::State& state) {
  std::string query = Query(state.range(0));
  const auto& stream = Stream();
  uint64_t outputs = 0, pushed = 0;
  for (auto _ : state) {
    BenchPlan plan(query, PlanOptions{});
    plan.Run(stream);
    outputs = plan.outputs;
    pushed = plan.plan->sequence_scan().stats().instances_pushed;
  }
  state.SetItemsProcessed(state.iterations() * 30000);
  state.counters["matches"] = static_cast<double>(outputs);
  state.counters["instances"] = static_cast<double>(pushed);
}

BENCHMARK(BM_SequenceLength)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(6)
    ->Unit(benchmark::kMillisecond);

// The same sweep without the equivalence chain (no partitioning possible):
// the all-matches semantics makes results combinatorial, so the stream is
// smaller and the window tighter.
void BM_SequenceLength_Unkeyed(benchmark::State& state) {
  std::string pattern;
  for (int64_t i = 0; i < state.range(0); ++i) {
    if (i > 0) pattern += ", ";
    pattern += std::string(kTypes[i]) + " v" + std::to_string(i);
  }
  std::string query = "EVENT SEQ(" + pattern + ") WITHIN 50";
  SyntheticConfig config;
  config.seed = 43;
  config.event_count = 5000;
  config.tag_count = 50;
  config.type_weights.clear();
  for (const char* type : kTypes) config.type_weights.emplace_back(type, 1.0);
  const auto& stream = CachedStream(config, "lenu");
  uint64_t outputs = 0;
  for (auto _ : state) {
    BenchPlan plan(query, PlanOptions{});
    plan.Run(stream);
    outputs = plan.outputs;
  }
  state.SetItemsProcessed(state.iterations() * 5000);
  state.counters["matches"] = static_cast<double>(outputs);
}

BENCHMARK(BM_SequenceLength_Unkeyed)
    ->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace sase

BENCHMARK_MAIN();
