#ifndef SASE_RUNTIME_OUTPUT_MERGER_H_
#define SASE_RUNTIME_OUTPUT_MERGER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/match.h"
#include "engine/query_engine.h"

namespace sase {

/// One record captured from a shard engine's output callback, tagged with
/// enough provenance to re-sequence it into serial order.
struct TaggedRecord {
  QueryId query = 0;
  StreamId stream = kDefaultStream;  // input stream of the producing query
  int worker = 0;       // producing worker (final tie-break only)
  uint64_t arrival = 0; // per-worker arrival counter (final tie-break only)
  OutputRecord record;
};

/// Re-sequences shard outputs into the exact order serial execution would
/// have produced, using the serial-order stamp on each OutputRecord (see
/// engine/match.h) plus per-stream dispatch logs.
///
/// Serial execution emits records in *trigger order*: events are processed
/// in dispatch order (the interleaving of OnEvent / OnStreamEvent calls),
/// and while processing one event each plan reading that event's stream (in
/// QueryId order) first releases tail-negation deferrals whose window
/// closed, then emits the matches the event completes. A record's trigger
/// event is therefore
///   - the completing constituent itself (`emit_seq`) for immediate records,
///   - the first event of the query's input stream with timestamp >
///     `release_ts` for deferred (tail-negation) records, or end-of-stream
///     if no such event arrives.
///
/// The merger keeps one dispatch log per input stream (timestamp, seq of
/// every event the runtime forwarded to that stream, in stream order) plus a
/// single global dispatch index numbering all events across streams in
/// dispatch order. Each buffered record's trigger resolves within its
/// query's stream log to a *global* index, and records release sorted by
///   (global trigger index, query id, deferred-before-immediate, release_ts,
///    completing ts, completing seq, worker, arrival).
/// Records from one worker already arrive in this order relative to each
/// other; any two records that tie through `emit_seq` share a completing
/// event and hence a worker, so the worker/arrival tail makes the order
/// total without ever deciding between shards.
///
/// Memory bound: after each DrainReady(safe_index) the log prefix at or
/// below `safe_index` can never be a trigger again — every already-buffered
/// record there was just released, and the caller guarantees no worker can
/// still produce one — so the merger truncates it (amortized: a stream's
/// prefix is dropped once its dead run reaches `compact_min` entries).
/// Steady-state log length is therefore O(dispatch window between drains),
/// independent of total stream length.
///
/// All methods run on the single dispatcher thread.
class OutputMerger {
 public:
  /// Global dispatch index standing for "released at end-of-stream".
  static constexpr uint64_t kNoTrigger = static_cast<uint64_t>(-1);

  /// `compact_min`: dead prefix entries a stream log accumulates before the
  /// prefix is physically truncated (amortizes the erase).
  explicit OutputMerger(size_t compact_min = 1024)
      : compact_min_(compact_min) {}

  /// Appends one dispatched event to `stream`'s dispatch log and advances
  /// the global dispatch clock; returns the event's global dispatch index
  /// (1-based). Events must arrive in stream order per stream:
  /// non-decreasing timestamps, increasing seq.
  uint64_t NoteDispatched(StreamId stream, Timestamp ts, SequenceNumber seq);

  /// Takes ownership of records drained from a worker's output buffer.
  void Add(std::vector<TaggedRecord>&& records);

  /// Releases, in serial order, every buffered record whose trigger event is
  /// known and has global dispatch index <= `safe_index` (the caller's bound
  /// on the latest trigger every worker has fully processed), then compacts
  /// the dead log prefixes.
  std::vector<TaggedRecord> DrainReady(uint64_t safe_index);

  /// End-of-stream: releases everything and clears the logs. Records with a
  /// resolved trigger come first in serial order; records whose release
  /// window never closed follow in per-query flush order (query id,
  /// release_ts, completion order), mirroring QueryEngine::OnFlush.
  std::vector<TaggedRecord> DrainFinal();

  /// Restores the global dispatch clock from a checkpoint (recovery
  /// bootstrap, before any NoteDispatched/Add call): post-recovery indices
  /// continue on the crashed process's scale, so checkpointed positions
  /// (query registration points, window-event indices) remain directly
  /// comparable with indices issued after recovery.
  void SeedDispatched(uint64_t dispatched) { dispatched_ = dispatched; }

  /// Continues the merge ordinal from a checkpoint (recovery bootstrap,
  /// like SeedDispatched): records regenerated by replay are re-stamped
  /// with the cursor positions the crashed process delivered them under.
  void SeedMerged(uint64_t merged) { merged_ = merged; }

  uint64_t merged_count() const { return merged_; }
  size_t pending_count() const { return pending_.size(); }
  uint64_t dispatched_count() const { return dispatched_; }

  // --- dispatch-log introspection ---
  /// Live (non-compacted) entries across all stream logs.
  size_t log_len() const { return live_entries_; }
  /// High-water mark of log_len() over the merger's lifetime.
  size_t peak_log_len() const { return peak_log_len_; }
  /// Prefix truncations performed.
  uint64_t compaction_count() const { return compactions_; }
  /// Total log entries reclaimed by compaction.
  uint64_t compacted_entries() const { return compacted_entries_; }

 private:
  /// Dispatch log of one input stream. The three arrays are parallel;
  /// `global` maps a position to its global dispatch index and is strictly
  /// increasing, so compaction can drop a prefix without renumbering.
  struct StreamLog {
    std::vector<Timestamp> ts;
    std::vector<SequenceNumber> seq;
    std::vector<uint64_t> global;
  };

  uint64_t TriggerIndex(const TaggedRecord& record) const;
  /// Extracts the records marked in `take`, sorted into serial order;
  /// everything else stays pending in arrival order.
  std::vector<TaggedRecord> Release(const std::vector<bool>& take);
  /// Truncates every stream log's prefix of entries with global index
  /// <= `safe_index` once the dead run is worth the erase.
  void Compact(uint64_t safe_index);

  size_t compact_min_;
  std::vector<StreamLog> logs_;  // indexed by StreamId
  std::vector<TaggedRecord> pending_;
  uint64_t dispatched_ = 0;  // global dispatch clock (== last issued index)
  uint64_t merged_ = 0;
  size_t live_entries_ = 0;
  size_t peak_log_len_ = 0;
  uint64_t compactions_ = 0;
  uint64_t compacted_entries_ = 0;
  bool warned_order_ = false;
};

}  // namespace sase

#endif  // SASE_RUNTIME_OUTPUT_MERGER_H_
