// Randomized differential harness: for each seeded case (generated queries
// + generated stream, tests/query_gen.h) the same workload runs five ways —
//
//   1. one serial QueryEngine (the reference),
//   2. the sharded runtime at 2 shards,
//   3. the sharded runtime at 8 shards,
//   4. the sharded runtime resized 2 -> 8 -> 3 shards mid-stream (per-key
//      operator state handed across both layout changes),
//   5. a checkpointed 2-shard SaseSystem killed mid-stream and recovered
//      from disk (direct operator-state restore + journal suffix replay) at
//      2, 3 and 8 shards — the snapshot's shape, then resized, its per-key
//      state handed to the shards that own it at the caller's count,
//
// and every execution must produce byte-identical output. Fixed seeds keep
// CI deterministic; a failing case prints its seed and query texts so the
// exact case reproduces with a one-line filter.
//
// The exactly-once mode adds a sixth way: a consumer-acked (AckMode::
// kConsumer) SaseSystem killed inside the seeded emit-to-ack or
// ack-to-fsync window (tests/query_gen.h AckPlan) at 1, 2 and 8 shards,
// and at 2 shards recovered at 8 — asserting the recovered process
// re-delivers nothing at or below the durable acked cursor, re-deliveries
// carry their original stamps, and the stamp-deduped output is
// byte-identical to the serial reference.
//
// Env knobs (the nightly `differential-slow` CI job turns them up):
//   SASE_DIFF_CASES  override the seeded case count (default 50)
//   SASE_DIFF_FIRST  first seed of the sweep (default 1); with
//                    SASE_DIFF_CASES it splits a sweep into seed ranges
//                    that run as separate processes
//   SASE_DIFF_DIR    preserve failing cases' repro banner + checkpoint
//                    directory under this path (uploaded as a CI artifact)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/journal.h"
#include "checkpoint/snapshot.h"
#include "engine/query_engine.h"
#include "query_gen.h"
#include "runtime/sharded_runtime.h"
#include "system/sase_system.h"

namespace sase {
namespace {

using testgen::GeneratedCase;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/sase_differential_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

OutputCallback Collector(std::vector<std::string>* lines, size_t query) {
  return [lines, query](const OutputRecord& record) {
    lines->push_back("q" + std::to_string(query) + "|" + record.ToString());
  };
}

/// Execution 1: the serial reference. With `sharing` set the engine runs
/// structurally identical queries on one shared automaton; `shared_hits`
/// (optional) reports how many deliveries were served from a group's
/// buffered matches — the sharing sweep asserts the mode actually engaged.
std::vector<std::string> RunSerial(const Catalog& catalog,
                                   const GeneratedCase& c,
                                   bool sharing = false,
                                   uint64_t* shared_hits = nullptr) {
  std::vector<std::string> lines;
  QueryEngine engine(&catalog);
  engine.set_scan_sharing(sharing);
  for (size_t q = 0; q < c.queries.size(); ++q) {
    auto id = engine.Register(c.queries[q], Collector(&lines, q));
    EXPECT_TRUE(id.ok()) << id.status().ToString() << "\n" << c.Describe();
  }
  for (const EventPtr& event : c.events) engine.OnEvent(event);
  engine.OnFlush();
  if (shared_hits != nullptr) *shared_hits = engine.shared_scan_hits();
  return lines;
}

/// Executions 2-3: the sharded runtime.
std::vector<std::string> RunSharded(const Catalog& catalog,
                                    const GeneratedCase& c, int shards,
                                    bool sharing = false) {
  std::vector<std::string> lines;
  RuntimeConfig config;
  config.shard_count = shards;
  config.merge_interval = 64;  // frequent rounds
  config.scan_sharing = sharing;
  ShardedRuntime runtime(&catalog, config);
  for (size_t q = 0; q < c.queries.size(); ++q) {
    auto id = runtime.Register(c.queries[q], Collector(&lines, q));
    EXPECT_TRUE(id.ok()) << id.status().ToString() << "\n" << c.Describe();
  }
  for (const EventPtr& event : c.events) runtime.OnEvent(event);
  runtime.OnFlush();
  return lines;
}

/// Execution 4: the sharded runtime resized mid-stream at seed-derived
/// points, 2 -> 8 -> 3 shards. Every stateful query's per-key state — stacks
/// with or without WITHIN, negation candidates, parked deferrals, shared
/// scans — must survive both hand-offs byte-identically.
std::vector<std::string> RunResized(const Catalog& catalog,
                                    const GeneratedCase& c,
                                    bool sharing = false) {
  size_t n = c.events.size();
  size_t grow_at = n / 4 + (c.seed / 3) % (n / 4);       // [n/4, n/2)
  size_t shrink_at = n / 2 + (c.seed / 11) % (n / 2 - 1);  // [n/2, n-1)
  std::vector<std::string> lines;
  RuntimeConfig config;
  config.shard_count = 2;
  config.merge_interval = 64;
  config.scan_sharing = sharing;
  ShardedRuntime runtime(&catalog, config);
  for (size_t q = 0; q < c.queries.size(); ++q) {
    auto id = runtime.Register(c.queries[q], Collector(&lines, q));
    EXPECT_TRUE(id.ok()) << id.status().ToString() << "\n" << c.Describe();
  }
  for (size_t i = 0; i < n; ++i) {
    if (i == grow_at || i == shrink_at) {
      Status resized = runtime.Resize(i == grow_at ? 8 : 3);
      EXPECT_TRUE(resized.ok()) << resized.ToString() << "\n" << c.Describe();
    }
    runtime.OnEvent(c.events[i]);
  }
  runtime.OnFlush();
  EXPECT_EQ(runtime.resize_count(), 2u);
  return lines;
}

/// Recovers the crashed checkpoint directory `dir` at `shards` shards and
/// finishes the stream from `crash_at`. Recovery runs on a copy, since a
/// recovered system keeps journaling into its directory: one crash can be
/// recovered at several shard counts, and `dir` stays as the crash left it.
/// `lines` holds the pre-crash output and receives the recovered system's.
void RecoverAndFinish(const GeneratedCase& c, const std::string& dir,
                      SystemConfig config, int shards, size_t crash_at,
                      std::vector<std::string>* lines) {
  std::string copy = dir + "_at" + std::to_string(shards);
  std::filesystem::remove_all(copy);
  std::filesystem::copy(dir, copy, std::filesystem::copy_options::recursive);
  config.shard_count = shards;
  auto recovered = SaseSystem::Recover(
      copy, StoreLayout::RetailDemo(), config,
      [lines](const std::string& name) -> OutputCallback {
        return Collector(lines,
                         static_cast<size_t>(std::atoi(name.c_str() + 1)));
      });
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString() << "\n"
                              << c.Describe();
  if (!recovered.ok()) return;
  SaseSystem& system = *recovered.value();
  EXPECT_EQ(system.config().shard_count, shards);
  EXPECT_EQ(system.runtime()->shard_count(), shards);
  for (size_t i = crash_at; i < c.events.size(); ++i) {
    system.event_bus().OnEvent(c.events[i]);
  }
  system.Flush();
}

/// Execution 5: checkpoint mid-stream, kill without flush, then recover the
/// crash at each count in `recover_shards` and finish the stream; returns
/// each recovery's full output by shard count. Checkpoint and crash offsets
/// derive from the case seed. `config` carries the mode knobs; the shard
/// count, merge cadence and checkpoint directory are set here.
std::map<int, std::vector<std::string>> RunCheckpointKillRecover(
    const GeneratedCase& c, SystemConfig config, int shards,
    const std::vector<int>& recover_shards, const std::string& dir) {
  size_t n = c.events.size();
  size_t checkpoint_at = n / 4 + c.seed % (n / 4);      // [n/4, n/2)
  size_t crash_at = n / 2 + (c.seed / 7) % (n / 2 - 1); // [n/2, n-1)

  std::vector<std::string> lines;
  config.noise = NoiseModel::Perfect();
  config.shard_count = shards;
  config.runtime_merge_interval = 64;
  config.checkpoint.dir = dir;
  {
    SaseSystem system(StoreLayout::RetailDemo(), config);
    for (size_t q = 0; q < c.queries.size(); ++q) {
      auto id = system.RegisterMonitoringQuery("q" + std::to_string(q),
                                               c.queries[q],
                                               Collector(&lines, q));
      EXPECT_TRUE(id.ok()) << id.status().ToString() << "\n" << c.Describe();
    }
    for (size_t i = 0; i < crash_at; ++i) {
      if (i == checkpoint_at) {
        Status taken = system.Checkpoint();
        EXPECT_TRUE(taken.ok()) << taken.ToString() << "\n" << c.Describe();
      }
      system.event_bus().OnEvent(c.events[i]);
    }
    // Killed here: destroyed without a flush.
  }
  std::map<int, std::vector<std::string>> outputs;
  for (int count : recover_shards) {
    outputs[count] = lines;
    RecoverAndFinish(c, dir, config, count, crash_at, &outputs[count]);
  }
  return outputs;
}

/// The sweeps' kill-recover leg: `golden` must come out of every recovery.
void ExpectRecoveriesMatch(const std::vector<std::string>& golden,
                           const std::map<int, std::vector<std::string>>& runs,
                           const std::string& what) {
  for (const auto& [shards, lines] : runs) {
    EXPECT_EQ(golden, lines) << what << " divergence recovered at " << shards
                             << " shards";
  }
}

/// CI sweep: >= 50 seeded cases, zero divergence tolerated. To reproduce
/// one case locally, read the seed off the failure message and run the
/// sweep with SASE_DIFF_FIRST=<seed> SASE_DIFF_CASES=1.
constexpr uint64_t kDefaultFirstSeed = 1;
constexpr uint64_t kDefaultCaseCount = 50;
constexpr int64_t kEventsPerCase = 260;

/// Positive integer from environment variable `name`, or `fallback`.
uint64_t EnvCount(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  uint64_t parsed = std::strtoull(env, nullptr, 10);
  return parsed == 0 ? fallback : parsed;
}

uint64_t FirstSeed() { return EnvCount("SASE_DIFF_FIRST", kDefaultFirstSeed); }
uint64_t CaseCount() { return EnvCount("SASE_DIFF_CASES", kDefaultCaseCount); }

/// When SASE_DIFF_DIR is set, copies the failing case's reproduction
/// banner and its on-disk checkpoint (journal segments + snapshot) there,
/// so CI can upload the exact bytes the failure happened on.
void PreserveFailureArtifacts(const GeneratedCase& c, int shards,
                              const std::string& checkpoint_dir) {
  const char* env = std::getenv("SASE_DIFF_DIR");
  if (env == nullptr) return;
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path dest = fs::path(env) / ("seed-" + std::to_string(c.seed) +
                                   "-shards-" + std::to_string(shards));
  fs::create_directories(dest, ec);
  std::ofstream repro(dest / "repro.txt");
  repro << c.Describe() << "\nshards=" << shards << "\n";
  if (!checkpoint_dir.empty() && fs::exists(checkpoint_dir, ec)) {
    fs::copy(checkpoint_dir, dest / "checkpoint",
             fs::copy_options::recursive | fs::copy_options::overwrite_existing,
             ec);
  }
}

TEST(DifferentialTest, SerialShardedAndRecoveredExecutionsAgree) {
  Catalog catalog = Catalog::RetailDemo();
  const uint64_t first = FirstSeed();
  const uint64_t cases = CaseCount();
  uint64_t interesting = 0;  // cases whose reference produced any output

  for (uint64_t seed = first; seed < first + cases; ++seed) {
    GeneratedCase c = testgen::GenerateCase(catalog, seed, kEventsPerCase);
    SCOPED_TRACE(c.Describe());

    auto golden = RunSerial(catalog, c);
    if (!golden.empty()) ++interesting;

    std::string dir = FreshDir(std::to_string(seed));
    EXPECT_EQ(golden, RunSharded(catalog, c, 2)) << "2-shard divergence";
    EXPECT_EQ(golden, RunSharded(catalog, c, 8)) << "8-shard divergence";
    EXPECT_EQ(golden, RunResized(catalog, c)) << "resize divergence";
    ExpectRecoveriesMatch(
        golden, RunCheckpointKillRecover(c, {}, /*shards=*/2, {2, 3, 8}, dir),
        "checkpoint-kill-recover");
    if (HasFatalFailure() || HasNonfatalFailure()) {
      PreserveFailureArtifacts(c, /*shards=*/2, dir);
      FAIL() << "differential divergence; reproduce with " << c.Describe();
    }
  }
  // The sweep must exercise real matching, not 50 cases of silence.
  EXPECT_GE(interesting, cases / 2)
      << "generator produced mostly output-free cases; widen its windows";
}

/// Multi-query sharing sweep: cases built from families of structurally
/// identical queries (tests/query_gen.h NextFamily) run with scan sharing
/// ON — serial, 2-shard, 8-shard, resized and checkpoint-kill-recover — and every
/// execution must be byte-identical to the serial sharing-OFF reference
/// (dedicated plans). The hit counter proves the mode engaged: a sweep
/// where groups never serve buffered matches would be vacuously green.
TEST(DifferentialTest, SharedScanExecutionsMatchDedicatedPlans) {
  Catalog catalog = Catalog::RetailDemo();
  const uint64_t first = FirstSeed();
  const uint64_t cases = CaseCount();
  uint64_t interesting = 0;
  uint64_t sharing_engaged = 0;  // cases whose serial sharing run had hits

  for (uint64_t seed = first; seed < first + cases; ++seed) {
    GeneratedCase c = testgen::GenerateSharingCase(catalog, seed,
                                                   kEventsPerCase);
    SCOPED_TRACE(c.Describe());

    auto golden = RunSerial(catalog, c, /*sharing=*/false);
    if (!golden.empty()) ++interesting;

    uint64_t hits = 0;
    std::string dir = FreshDir("share_" + std::to_string(seed));
    EXPECT_EQ(golden, RunSerial(catalog, c, /*sharing=*/true, &hits))
        << "serial sharing divergence";
    if (hits > 0) ++sharing_engaged;
    EXPECT_EQ(golden, RunSharded(catalog, c, 2, /*sharing=*/true))
        << "2-shard sharing divergence";
    EXPECT_EQ(golden, RunSharded(catalog, c, 8, /*sharing=*/true))
        << "8-shard sharing divergence";
    EXPECT_EQ(golden, RunResized(catalog, c, /*sharing=*/true))
        << "resized sharing divergence";
    // Recovery reuses the same config, so a sharing checkpoint is restored
    // into sharing engines (the documented requirement, docs/recovery.md).
    SystemConfig sharing;
    sharing.scan_sharing = true;
    ExpectRecoveriesMatch(
        golden, RunCheckpointKillRecover(c, sharing, /*shards=*/2, {2, 3}, dir),
        "sharing checkpoint-kill-recover");
    if (HasFatalFailure() || HasNonfatalFailure()) {
      PreserveFailureArtifacts(c, /*shards=*/2, dir);
      FAIL() << "sharing divergence; reproduce with " << c.Describe();
    }
  }
  EXPECT_GE(interesting, cases / 2)
      << "generator produced mostly output-free cases; widen its windows";
  EXPECT_GE(sharing_engaged, cases * 3 / 4)
      << "families rarely shared a scan; the sweep is not testing sharing";
}

/// Skew-mode sharded execution: like RunSharded, but with the hot-key
/// mitigation knobs set (low trigger cadence so ~260-event cases split).
/// `report` (optional) receives the post-run StatsReport, which the sweep
/// parses for split-engagement accounting; `secondary_splits` (optional)
/// the secondary splits installed, each a shard rebuild with a hand-off.
/// A non-zero `resize_to` resizes mid-stream, after the split, so a split
/// key's pieces move between shard layouts.
std::vector<std::string> RunShardedSkewed(const Catalog& catalog,
                                          const GeneratedCase& c, int shards,
                                          bool mitigation,
                                          std::string* report = nullptr,
                                          uint64_t* secondary_splits = nullptr,
                                          int resize_to = 0) {
  std::vector<std::string> lines;
  RuntimeConfig config;
  config.shard_count = shards;
  config.merge_interval = 64;
  config.hotkey_mitigation = mitigation;
  config.hotkey_min_events = 64;
  config.hotkey_split_threshold = 50;
  ShardedRuntime runtime(&catalog, config);
  for (size_t q = 0; q < c.queries.size(); ++q) {
    auto id = runtime.Register(c.queries[q], Collector(&lines, q));
    EXPECT_TRUE(id.ok()) << id.status().ToString() << "\n" << c.Describe();
  }
  for (size_t i = 0; i < c.events.size(); ++i) {
    if (resize_to > 0 && i == c.events.size() / 2) {
      EXPECT_TRUE(runtime.Resize(resize_to).ok()) << c.Describe();
    }
    runtime.OnEvent(c.events[i]);
  }
  runtime.OnFlush();
  if (report != nullptr) *report = runtime.StatsReport();
  if (secondary_splits != nullptr) {
    *secondary_splits = runtime.hotkey_secondary_splits();
  }
  return lines;
}

/// Whether the snapshot a recovery from `dir` reads carries any hot-key
/// split-table entries.
bool SnapshotHasSplits(const std::string& dir) {
  auto manifest = checkpoint::ReadManifest(dir);
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  if (!manifest.ok()) return false;
  auto snap = checkpoint::ReadSnapshot(dir, manifest.value(), nullptr);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  return snap.ok() && !snap.value().splits.empty();
}

/// Skewed-stream mitigation sweep: a 90%-hot key over the three mitigation
/// families (tests/query_gen.h GenerateSkewedCase) at 1, 2 and 8 shards —
/// mitigation on, mitigation off, a mitigated 2 -> 3 shard resize and a
/// mitigated 2-shard checkpoint-kill-recover leg recovered at 2 and at 3
/// shards — every execution byte-identical to the serial reference. The
/// engagement counters prove the sweep exercised real splits (and
/// checkpointed them), not 50 cases of never-triggered mitigation.
TEST(DifferentialTest, HotKeyMitigationStaysByteIdentical) {
  Catalog catalog = Catalog::RetailDemo();
  const uint64_t first = FirstSeed();
  const uint64_t cases = CaseCount();
  uint64_t interesting = 0;
  uint64_t engaged = 0;             // mitigated runs with an active split
  uint64_t secondary_engaged = 0;   // mitigated runs that handed state off
  uint64_t checkpointed_splits = 0; // snapshots carrying a split table

  for (uint64_t seed = first; seed < first + cases; ++seed) {
    GeneratedCase c =
        testgen::GenerateSkewedCase(catalog, seed, kEventsPerCase,
                                    /*hot_percent=*/90);
    SCOPED_TRACE(c.Describe());

    auto golden = RunSerial(catalog, c);
    if (!golden.empty()) ++interesting;

    for (int shards : {1, 2, 8}) {
      std::string report;
      uint64_t secondary = 0;
      EXPECT_EQ(golden,
                RunShardedSkewed(catalog, c, shards, /*mitigation=*/true,
                                 &report, &secondary))
          << shards << "-shard mitigated divergence";
      if (report.find("hot-key splits:") != std::string::npos &&
          report.find("active=0") == std::string::npos) {
        ++engaged;
      }
      if (secondary > 0) ++secondary_engaged;
      EXPECT_EQ(golden,
                RunShardedSkewed(catalog, c, shards, /*mitigation=*/false))
          << shards << "-shard unmitigated divergence";
    }
    EXPECT_EQ(golden, RunShardedSkewed(catalog, c, /*shards=*/2,
                                       /*mitigation=*/true, nullptr, nullptr,
                                       /*resize_to=*/3))
        << "mitigated 2->3 resize divergence";

    // Mitigation on, so the split table the pre-crash process installed
    // rides the snapshot (SPLIT lines) and the recovered process re-routes
    // split keys identically, at the snapshot's shape and resized.
    SystemConfig mitigated;
    mitigated.hotkey_mitigation = true;
    mitigated.hotkey_min_events = 64;
    mitigated.hotkey_split_threshold = 50;
    std::string dir = FreshDir("skew_" + std::to_string(seed));
    ExpectRecoveriesMatch(
        golden, RunCheckpointKillRecover(c, mitigated, /*shards=*/2, {2, 3}, dir),
        "mitigated checkpoint-kill-recover");
    if (SnapshotHasSplits(dir)) ++checkpointed_splits;

    if (HasFatalFailure() || HasNonfatalFailure()) {
      PreserveFailureArtifacts(c, /*shards=*/2, dir);
      FAIL() << "hot-key mitigation divergence; reproduce with "
             << c.Describe();
    }
  }
  EXPECT_GE(interesting, cases / 2)
      << "generator produced mostly output-free cases; widen its windows";
  // Families 0 and 1 (two thirds of seeds) must actually split at every
  // shard count; family 2 refuses by design.
  EXPECT_GE(engaged, cases)
      << "mitigation rarely engaged; the sweep is not testing splits";
  // Family 1 sub-partitions its hot key: a shard rebuild that hands the
  // key's state to the (key, AreaId) owners.
  EXPECT_GE(secondary_engaged, cases / 3)
      << "secondary splits rarely happened; the split hand-off is untested";
  EXPECT_GE(checkpointed_splits, cases / 3)
      << "snapshots rarely carried a split table; the kill-recover leg is "
         "not testing split restore";
}

/// Per-class observations from one consumer-acked kill-recover execution.
struct AckRunResult {
  std::vector<std::string> deduped;  // stamp-deduped output, delivery order
  uint64_t duplicates = 0;           // re-delivered stamps (expected > 0 when
                                     // the crash window held anything)
  uint64_t stamp_mismatches = 0;     // re-delivery whose content or stamp
                                     // differed from the original: fatal
  uint64_t unstamped = 0;            // deliveries without a cursor stamp
  // Durable acked cursor read straight off the disk the crash left behind.
  uint64_t durable_runtime = 0;
  uint64_t durable_serial = 0;
  // What the recovered system resumed from.
  uint64_t recovered_runtime = 0;
  uint64_t recovered_serial = 0;
  // Smallest cursor position delivered per class from recovery onwards
  // (replay included); 0 = that class delivered nothing after the kill.
  uint64_t min_redelivered_runtime = 0;
  uint64_t min_redelivered_serial = 0;
};

/// Execution 5: consumer-acked exactly-once mode. The simulated consumer
/// acks per the case's AckPlan, the process is killed mid-stream without a
/// flush (in-memory acks and the pending group-commit batch die with it),
/// and the process recovered at `recover_shards` shards finishes the
/// stream against the same consumer's dedup state.
AckRunResult RunAckCrashRecover(const GeneratedCase& c, int shards,
                                int recover_shards, const std::string& dir) {
  size_t n = c.events.size();
  size_t checkpoint_at = n / 4 + c.seed % (n / 4);       // [n/4, n/2)
  size_t crash_at = n / 2 + (c.seed / 7) % (n / 2 - 1);  // [n/2, n-1)
  size_t stall_at =
      crash_at * static_cast<size_t>(c.ack_plan.stall_after_percent) / 100;

  AckRunResult result;
  std::map<std::pair<bool, uint64_t>, std::string> stamps;
  SaseSystem* ack_target = nullptr;  // null while no process is up / replay
  bool consumer_acking = true;
  bool after_kill = false;
  auto consumer = [&](size_t q) -> OutputCallback {
    return [&, q](const OutputRecord& record) {
      if (record.cursor_position == 0) {
        ++result.unstamped;
        return;
      }
      std::string line = "q" + std::to_string(q) + "|" + record.ToString();
      auto key = std::make_pair(record.cursor_runtime_hosted,
                                record.cursor_position);
      auto [it, fresh] = stamps.emplace(key, line);
      if (fresh) {
        result.deduped.push_back(line);
      } else {
        ++result.duplicates;
        if (it->second != line) ++result.stamp_mismatches;
      }
      if (after_kill) {
        uint64_t& min_seen = record.cursor_runtime_hosted
                                 ? result.min_redelivered_runtime
                                 : result.min_redelivered_serial;
        if (min_seen == 0 || record.cursor_position < min_seen) {
          min_seen = record.cursor_position;
        }
      }
      if (ack_target != nullptr && consumer_acking &&
          record.cursor_position % c.ack_plan.ack_stride == 0) {
        Status acked = ack_target->AckOutput(record);
        EXPECT_TRUE(acked.ok()) << acked.ToString() << "\n" << c.Describe();
      }
    };
  };

  SystemConfig config;
  config.noise = NoiseModel::Perfect();
  config.shard_count = shards;
  config.runtime_merge_interval = 64;
  config.checkpoint.dir = dir;
  config.checkpoint.ack_mode = checkpoint::AckMode::kConsumer;
  config.checkpoint.ack_commit_interval = c.ack_plan.ack_commit_interval;
  {
    SaseSystem system(StoreLayout::RetailDemo(), config);
    ack_target = &system;
    for (size_t q = 0; q < c.queries.size(); ++q) {
      auto id = system.RegisterMonitoringQuery("q" + std::to_string(q),
                                               c.queries[q], consumer(q));
      EXPECT_TRUE(id.ok()) << id.status().ToString() << "\n" << c.Describe();
    }
    for (size_t i = 0; i < crash_at; ++i) {
      if (i == checkpoint_at) {
        Status taken = system.Checkpoint();
        EXPECT_TRUE(taken.ok()) << taken.ToString() << "\n" << c.Describe();
      }
      if (i == stall_at) {
        // Quiesce so everything produced so far is delivered (and acked per
        // the plan) before the consumer stalls: in a tight feed loop the
        // rounds' deliveries trail the dispatcher, and without this the
        // only delivery burst before the kill would be the checkpoint's own
        // quiesce — whose acks the snapshot immediately makes durable,
        // leaving the crash window empty.
        system.runtime()->WaitIdle();
        consumer_acking = false;  // consumer stalls
      }
      system.event_bus().OnEvent(c.events[i]);
    }
    // Final pre-kill burst: these deliveries land after the last durable
    // commit point, so they are exactly the emit-to-ack window (stalled or
    // stride-skipped stamps) plus the ack-to-fsync window (acks still in
    // the journal's pending group-commit batch).
    system.runtime()->WaitIdle();
    ack_target = nullptr;
    // Killed here: destroyed without a flush — unacked deliveries, acks
    // inside the pending commit batch, everything in memory is gone.
  }

  // The durable cursor, read the way recovery will read it: the snapshot's
  // ACKED line superseded by any ack-cursor records journaled after it.
  auto manifest = checkpoint::ReadManifest(dir);
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  if (!manifest.ok()) return result;
  auto snap = checkpoint::ReadSnapshot(dir, manifest.value(), nullptr);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  if (!snap.ok()) return result;
  result.durable_runtime = snap.value().acked_runtime;
  result.durable_serial = snap.value().acked_serial;
  auto scan = checkpoint::ReadJournal(dir, manifest.value());
  EXPECT_TRUE(scan.ok()) << scan.status().ToString();
  if (!scan.ok()) return result;
  for (const checkpoint::JournalRecord& record : scan.value().records) {
    if (record.kind == checkpoint::JournalRecord::Kind::kAckCursor) {
      result.durable_runtime =
          std::max(result.durable_runtime, record.acked_runtime);
      result.durable_serial =
          std::max(result.durable_serial, record.acked_serial);
    }
  }

  after_kill = true;
  config.shard_count = recover_shards;
  auto recovered = SaseSystem::Recover(
      dir, StoreLayout::RetailDemo(), config,
      [&consumer](const std::string& name) -> OutputCallback {
        return consumer(static_cast<size_t>(std::atoi(name.c_str() + 1)));
      });
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString() << "\n"
                              << c.Describe();
  if (!recovered.ok()) return result;
  EXPECT_EQ(recovered.value()->config().shard_count, recover_shards);
  EXPECT_EQ(recovered.value()->runtime()->shard_count(), recover_shards);
  result.recovered_runtime = recovered.value()->acked_runtime();
  result.recovered_serial = recovered.value()->acked_serial();
  ack_target = recovered.value().get();
  consumer_acking = true;  // the consumer comes back with the new process
  for (size_t i = crash_at; i < c.events.size(); ++i) {
    recovered.value()->event_bus().OnEvent(c.events[i]);
  }
  recovered.value()->Flush();
  return result;
}

TEST(DifferentialTest, ExactlyOnceAckedCursorSurvivesCrashWindows) {
  Catalog catalog = Catalog::RetailDemo();
  const uint64_t first = FirstSeed();
  const uint64_t cases = CaseCount();
  uint64_t redelivering = 0;  // executions that actually re-delivered

  for (uint64_t seed = first; seed < first + cases; ++seed) {
    GeneratedCase c = testgen::GenerateCase(catalog, seed, kEventsPerCase);
    SCOPED_TRACE(c.Describe());
    auto golden = RunSerial(catalog, c);

    // (crash shape, recovery shape): 2 -> 8 reshapes on recovery.
    for (auto [shards, recover_shards] :
         {std::pair{1, 1}, std::pair{2, 2}, std::pair{8, 8}, std::pair{2, 8}}) {
      std::string dir =
          FreshDir("ack_" + std::to_string(seed) + "_" +
                   std::to_string(shards) + "_" + std::to_string(recover_shards));
      SCOPED_TRACE(std::to_string(shards) + "-shard crash recovered at " +
                   std::to_string(recover_shards) + " shards");
      AckRunResult run = RunAckCrashRecover(c, shards, recover_shards, dir);

      // Every delivery carries a stamp, and a re-delivered stamp always
      // carries the original record bytes.
      EXPECT_EQ(run.unstamped, 0u) << shards << "-shard unstamped delivery";
      EXPECT_EQ(run.stamp_mismatches, 0u)
          << shards << "-shard re-delivery changed content or stamp";

      // The recovery gate IS the durable acked cursor, and nothing at or
      // below it is ever delivered again: zero duplicates past the acked
      // cursor.
      EXPECT_EQ(run.recovered_runtime, run.durable_runtime) << shards;
      EXPECT_EQ(run.recovered_serial, run.durable_serial) << shards;
      if (run.min_redelivered_runtime != 0) {
        EXPECT_GT(run.min_redelivered_runtime, run.durable_runtime)
            << shards << "-shard duplicate below the acked cursor";
      }
      if (run.min_redelivered_serial != 0) {
        EXPECT_GT(run.min_redelivered_serial, run.durable_serial) << shards;
      }

      // Zero lost acked outputs + acked-suffix byte-equality: the deduped
      // stream is exactly the uninterrupted serial reference.
      EXPECT_EQ(golden, run.deduped) << shards << "-shard deduped divergence";
      if (run.duplicates > 0) ++redelivering;

      if (HasFatalFailure() || HasNonfatalFailure()) {
        PreserveFailureArtifacts(c, shards, dir);
        FAIL() << "exactly-once divergence; reproduce with " << c.Describe();
      }
    }
  }
  // The sweep must actually exercise the crash windows: a harness whose
  // kills always land after a full commit would prove nothing.
  EXPECT_GE(redelivering, cases / 2)
      << "crash windows were mostly empty; widen the ack plans";
}

}  // namespace
}  // namespace sase
