#ifndef SASE_CHECKPOINT_SNAPSHOT_H_
#define SASE_CHECKPOINT_SNAPSHOT_H_

#include <string>
#include <vector>

#include "core/event.h"
#include "core/stream.h"
#include "db/database.h"
#include "engine/planner.h"
#include "engine/query_engine.h"
#include "util/status.h"

namespace sase {
namespace checkpoint {

/// One registered query as captured at a quiesce point. Recovery
/// re-registers it under its id, then loads its serialized operator state.
struct SnapshotQuery {
  QueryId id = 0;
  bool archiving = false;       // archiving rule vs monitoring query
  bool runtime_hosted = false;  // sharded runtime vs serial engine
  PlanOptions options;
  std::string name;
  std::string text;
};

/// Dispatch stamp of one interned input stream at the quiesce point.
struct SnapshotStream {
  StreamId id = kDefaultStream;
  std::string name;  // lowercased FROM name; empty = default input
  Timestamp clock = 0;
  SequenceNumber last_seq = 0;
  uint64_t events = 0;
};

/// One hot-key split-table entry: key `key` of stream `stream` is
/// rerouted away from its key-hash shard — `mode` mirrors
/// Partitioner::SplitMode (0 = spread round-robin, 1 = sub-hash by
/// `(key, secondary_attr)`). A secondary split's sub-partition state lives
/// on the shard the sub-hash picks, so recovery must restore the table
/// before any routing.
struct SnapshotSplit {
  StreamId stream = kDefaultStream;
  int mode = 0;
  Value key;
  std::string secondary_attr;  // empty for spread
};

/// The snapshot format this build writes and the only one it reads: direct
/// operator-state serialization in per-query framed sections
/// (engine.sase), the consumer-acked output cursor (ACKED line) the
/// exactly-once recovery gate resumes from, and the hot-key split table
/// (SPLIT lines). The reader refuses every other format by name.
constexpr int kSnapshotFormat = 5;

/// One framed engine-state section: the serialized operator
/// state of one query's plan on one hosting engine, or an engine-level
/// counter payload (`query == 0`). Sections are individually CRC'd and
/// versioned in the engine.sase file, so a reader can verify and skip
/// sections it does not understand.
struct EngineStateSection {
  /// Section kind: "plan" (QueryPlan::SaveState payload) or "engine"
  /// (QueryEngine::SerializeEngineState payload). Readers skip unknown
  /// kinds.
  std::string kind;
  /// Hosting engine: "serial", "broadcast", or "shard-<i>".
  std::string host;
  QueryId query = 0;  // 0 for engine-level sections
  uint32_t version = 1;
  std::string payload;
};

/// Everything outside the Event Database that a SaseSystem needs to resume:
/// registered queries in registration order, per-stream dispatch stamps
/// and clocks, merger/dispatch watermarks, the runtime shape, the
/// delivered-output and acked counters the recovery gate resumes emission
/// from, and the serialized engine state per query and host. The Event
/// Database itself rides along as a db::Dump file in the same snapshot
/// directory.
///
/// This is also the sharded runtime's checkpoint record:
/// ShardedRuntime::ExportCheckpoint fills the runtime's part (shape,
/// dispatch and merge counters, routing flags, streams, splits, its queries
/// and their engine-state sections) and RestoreCheckpoint reads it back.
struct SystemSnapshot {
  uint64_t snapshot_id = 0;
  /// The runtime shape the engine-state payloads were captured at. Recovery
  /// restores at this count and then resizes to the caller's.
  int shard_count = 1;
  std::string partition_key;
  uint64_t events_dispatched = 0;
  /// Delivered-output counters per host class. The runtime class is the
  /// OutputMerger's merge ordinal: every merged record reaches exactly one
  /// delivery callback.
  uint64_t delivered_runtime = 0;
  uint64_t delivered_serial = 0;
  /// Consumer-acked output counters at the snapshot point.
  uint64_t acked_runtime = 0;
  uint64_t acked_serial = 0;
  /// Dispatcher routing flags (see ShardedRuntime): restored verbatim so
  /// the recovered dispatcher claims merge progress exactly as the crashed
  /// one would have.
  bool any_routed = false;
  StreamId routed_stream = kDefaultStream;
  bool multi_routed = false;
  /// Event type names in EventTypeId order: engine-state payloads and
  /// journal records reference types by id, so recovery refuses a catalog
  /// mismatch.
  std::vector<std::string> catalog_types;
  std::vector<SnapshotStream> streams;
  std::vector<SnapshotQuery> queries;
  /// Active hot-key splits in (stream, key) order.
  std::vector<SnapshotSplit> splits;
  std::vector<EngineStateSection> engine_state;
};

/// Loads every engine-state section addressed to `host` into `engine`: plan
/// payloads into their queries, the counter payload into the engine itself.
/// Refuses a snapshot that lacks one — each of `queries` needs its plan
/// section and the engine its counter section — since a lost section (or a
/// corrupted kind field: the SECTION header rides outside the payload CRC)
/// would otherwise restore empty state. Sections of unknown kinds are
/// skipped; a known kind with a newer payload version is refused. The
/// serial engine ("serial") and every runtime worker load through here.
Status LoadEngineSections(const SystemSnapshot& snap, const std::string& host,
                          const std::vector<QueryId>& queries,
                          QueryEngine* engine);

/// Writes `snap` (state file + Event Database dump) into
/// `<dir>/snap-<id>/` and then atomically repoints `<dir>/MANIFEST` at the
/// new snapshot (tmp file + rename), so a crash mid-checkpoint leaves the
/// previous checkpoint intact and authoritative.
Status WriteSnapshot(const std::string& dir, const SystemSnapshot& snap,
                     const db::Database& database);

/// Reads `<dir>/MANIFEST`; NotFound when the directory holds no checkpoint.
Result<uint64_t> ReadManifest(const std::string& dir);

/// Reads snapshot `id` from `dir`. When `database` is non-null the Event
/// Database dump is loaded into it (get-or-append per table, see
/// db::LoadInto); pass nullptr to read the state file alone and load the
/// dump later via DbDumpPath (the recovery bootstrap reads state before the
/// recovered system's database exists).
Result<SystemSnapshot> ReadSnapshot(const std::string& dir, uint64_t id,
                                    db::Database* database);

/// Path of snapshot `id`'s Event Database dump inside `dir`.
std::string DbDumpPath(const std::string& dir, uint64_t id);

/// Deletes snapshot directories older than `keep` (garbage collection after
/// a successful checkpoint).
void RemoveStaleSnapshots(const std::string& dir, uint64_t keep);

}  // namespace checkpoint
}  // namespace sase

#endif  // SASE_CHECKPOINT_SNAPSHOT_H_
