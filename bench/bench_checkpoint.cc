// Durable checkpoint subsystem costs (src/checkpoint/).
//
// Three questions an operator sizes the knobs with:
//   1. What does write-ahead journaling cost per published event
//      (append throughput, with and without fsync)?
//   2. What does one snapshot cost, as a function of the live operator
//      state it has to serialize (the WITHIN spans of registered queries)?
//   3. How fast does recovery replay a journal suffix (bounds worst-case
//      restart time for a given checkpoint_journal_bytes)?
//
// Baseline numbers for this repository's CI container are recorded in
// BENCH_checkpoint.json.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "bench_util.h"
#include "checkpoint/journal.h"
#include "system/sase_system.h"

namespace sase {
namespace bench {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/sase_bench_checkpoint_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

const std::vector<EventPtr>& Stream(int64_t count) {
  SyntheticConfig config;
  config.seed = 53;
  config.event_count = count;
  config.tag_count = 100;
  return CachedStream(config, "checkpoint_" + std::to_string(count));
}

/// Raw journal append throughput. Arg 0: 0 = FsyncPolicy::kNever (write(2)
/// per record), 1 = kAlways (fsync per record). Arg 1: group-commit
/// interval under kAlways — records per fsync (1 = the legacy
/// fsync-every-record behavior). The /1/128 point is the WAL group-commit
/// payoff: one fsync amortized over 128 records, with every group closed
/// by an explicit Sync() before the iteration ends so the durability
/// frontier covers the whole stream.
void BM_JournalAppend(benchmark::State& state) {
  const auto& stream = Stream(10000);
  auto fsync = state.range(0) == 0 ? checkpoint::FsyncPolicy::kNever
                                   : checkpoint::FsyncPolicy::kAlways;
  const uint64_t group = static_cast<uint64_t>(state.range(1));
  std::string dir = FreshDir("append");
  uint64_t bytes = 0, commits = 0;
  for (auto _ : state) {
    auto journal = checkpoint::EventJournal::Open(dir, 1, 0, 64ull << 20, fsync);
    if (!journal.ok()) {
      state.SkipWithError(journal.status().ToString().c_str());
      return;
    }
    journal.value()->set_group_commit(group, /*max_delay_us=*/0);
    for (const auto& event : stream) {
      Status appended = journal.value()->AppendEvent("", *event);
      if (!appended.ok()) {
        state.SkipWithError(appended.ToString().c_str());
        return;
      }
    }
    Status synced = journal.value()->Sync();
    if (!synced.ok()) {
      state.SkipWithError(synced.ToString().c_str());
      return;
    }
    bytes = journal.value()->bytes_written();
    commits = journal.value()->group_commits();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.counters["group_commits"] = static_cast<double>(commits);
  std::filesystem::remove_all(dir);
}

/// Consumer-ack durability cost under the strictest fsync policy. Arg =
/// ack_commit_interval: 1 journals (and fsyncs) every AckOutput, 64 group-
/// commits a coalesced cursor record once per 64 acks. The gap between the
/// two is what the batching knob buys an exactly-once consumer: the
/// cursor is cumulative, so one coalesced record carries the same
/// durability as the 64 records it replaces.
void BM_AckCursorCommit(benchmark::State& state) {
  const uint64_t interval = static_cast<uint64_t>(state.range(0));
  std::string dir = FreshDir("ack_commit_" + std::to_string(interval));
  constexpr uint64_t kAcksPerIteration = 512;
  uint64_t position = 0;
  for (auto _ : state) {
    auto journal = checkpoint::EventJournal::Open(
        dir, 1, 0, 64ull << 20, checkpoint::FsyncPolicy::kAlways);
    if (!journal.ok()) {
      state.SkipWithError(journal.status().ToString().c_str());
      return;
    }
    journal.value()->set_ack_commit_interval(interval);
    for (uint64_t i = 0; i < kAcksPerIteration; ++i) {
      ++position;  // one statement per ack: the old single-expression form
                   // left the two argument reads indeterminately sequenced
      Status acked = journal.value()->AppendAckCursor(position, position);
      if (!acked.ok()) {
        state.SkipWithError(acked.ToString().c_str());
        return;
      }
    }
    Status committed = journal.value()->CommitAcks();
    if (!committed.ok()) {
      state.SkipWithError(committed.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kAcksPerIteration));
  std::filesystem::remove_all(dir);
}

/// One snapshot at a quiesce point, with the live operator state scaled by
/// the registered query's WITHIN span (arg = window ticks): larger windows
/// keep more partial matches and negation candidates to serialize.
void BM_SnapshotCost(benchmark::State& state) {
  const auto& stream = Stream(20000);
  std::string dir = FreshDir("snapshot_" + std::to_string(state.range(0)));
  SystemConfig config;
  config.noise = NoiseModel::Perfect();
  config.shard_count = 2;
  config.checkpoint.dir = dir;
  SaseSystem system(StoreLayout::RetailDemo(), config);
  auto id = system.RegisterMonitoringQuery(
      "pattern",
      "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
      "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN " +
          std::to_string(state.range(0)));
  if (!id.ok()) {
    state.SkipWithError(id.status().ToString().c_str());
    return;
  }
  for (const auto& event : stream) system.event_bus().OnEvent(event);
  for (auto _ : state) {
    Status taken = system.Checkpoint();
    if (!taken.ok()) {
      state.SkipWithError(taken.ToString().c_str());
      return;
    }
  }
  std::filesystem::remove_all(dir);
}

/// Recovery wall time as a function of journal length: checkpoint at event
/// 0 (empty snapshot), journal `arg` events, recover. Dominated by the
/// journal-suffix replay, which runs at engine speed.
void BM_RecoveryTime(benchmark::State& state) {
  const auto& stream = Stream(20000);
  int64_t journal_events = state.range(0);
  std::string dir = FreshDir("recovery_" + std::to_string(journal_events));
  SystemConfig config;
  config.noise = NoiseModel::Perfect();
  config.shard_count = 2;
  config.checkpoint.dir = dir;
  {
    SaseSystem system(StoreLayout::RetailDemo(), config);
    auto id = system.RegisterMonitoringQuery(
        "pattern",
        "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
        "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 200");
    if (!id.ok()) {
      state.SkipWithError(id.status().ToString().c_str());
      return;
    }
    Status taken = system.Checkpoint();
    if (!taken.ok()) {
      state.SkipWithError(taken.ToString().c_str());
      return;
    }
    for (int64_t i = 0; i < journal_events; ++i) {
      system.event_bus().OnEvent(stream[static_cast<size_t>(i)]);
    }
    // Falls out of scope un-flushed: the crash.
  }
  uint64_t replayed = 0;
  for (auto _ : state) {
    auto recovered =
        SaseSystem::Recover(dir, StoreLayout::RetailDemo(), config);
    if (!recovered.ok()) {
      state.SkipWithError(recovered.status().ToString().c_str());
      return;
    }
    replayed = recovered.value()->recovered_journal_records();
    // Each recovery resumes journaling in the same epoch at the next
    // segment; the journal contents replayed stay identical across
    // iterations because no new events are published.
  }
  state.SetItemsProcessed(state.iterations() * journal_events);
  state.counters["journal_records"] =
      benchmark::Counter(static_cast<double>(replayed));
  std::filesystem::remove_all(dir);
}

BENCHMARK(BM_JournalAppend)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({1, 128})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AckCursorCommit)->Arg(1)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SnapshotCost)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RecoveryTime)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace sase

BENCHMARK_MAIN();
