#ifndef SASE_RUNTIME_SHARDED_RUNTIME_H_
#define SASE_RUNTIME_SHARDED_RUNTIME_H_

#include <atomic>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checkpoint/snapshot.h"
#include "core/catalog.h"
#include "core/stream.h"
#include "engine/query_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/event_batch.h"
#include "runtime/output_merger.h"
#include "runtime/partitioner.h"

namespace sase {

/// Configuration knobs for the sharded execution runtime.
struct RuntimeConfig {
  /// Number of key-partitioned shards (worker threads with a private
  /// QueryEngine each). One extra broadcast worker hosts queries that
  /// cannot be key-partitioned.
  int shard_count = 4;
  /// Attribute whose value partitions the stream; `TagId` for the paper's
  /// RFID workloads.
  std::string partition_key = "TagId";
  /// Compile structurally identical queries onto one shared NFA per worker
  /// engine (QueryEngine::set_scan_sharing). Output is byte-identical to
  /// dedicated plans; a checkpoint taken with sharing on must be restored
  /// with sharing on (the plans' NFA signatures differ across modes
  /// whenever predicate pushdown applies).
  bool scan_sharing = false;
  /// Batches per shard queue before the dispatcher blocks (backpressure).
  /// A slot holds at most one round of a worker's events.
  size_t queue_capacity = 64;
  /// The runtime's one cadence: dispatched events per round (see "Cadence"
  /// on ShardedRuntime), so it bounds both the cross-thread batch size and
  /// how long a certified record waits for delivery. Clamped to at least 1.
  size_t merge_interval = 256;
  /// Dead dispatch-log prefix entries a stream log accumulates before the
  /// merger physically truncates it (amortizes the erase).
  size_t log_compact_min = 1024;
  TimeConfig time_config;
  /// Optional metrics registry (not owned; must outlive the runtime). When
  /// set, every worker engine records per-query operator latency, the
  /// workers record ring-wait latency, the dispatcher records
  /// dispatch->merge watermark latency, and ScrapeMetrics() mirrors the
  /// runtime counters. nullptr (default): the hot path is the exact
  /// uninstrumented code behind one null check per batch.
  obs::MetricsRegistry* metrics = nullptr;
  /// Slow-query log arming for every worker engine, active only with
  /// `metrics` set (the threshold is checked on the instrumented timing
  /// path): operator passes taking at least this long are counted per query
  /// and sampled into a last-`slow_query_log_size` ring per engine. 0
  /// disables. SaseSystem copies these from ObsConfig.
  uint64_t slow_query_threshold_ns = 1000000;
  size_t slow_query_log_size = 32;
  /// Space-saving sketch slots for per-stream hot-key accounting
  /// (Partitioner::EnableHotKeyTracking), armed only with `metrics` set so
  /// disabled-observability dispatch stays a null branch. 0 disables.
  size_t hotkey_sketch_size = 16;
  /// Hot-key mitigation: act on the sketch instead of just reporting it.
  /// When a key's sketch share of a stream's keyed events reaches
  /// `hotkey_split_threshold` percent (measured by the guaranteed lower
  /// bound count - error, so sketch overestimation cannot trigger a split)
  /// after at least `hotkey_min_events` keyed events, the runtime splits the
  /// key at a quiesce point: round-robin spread when the stream hosts no
  /// sharded stateful query, secondary sub-partitioning when every sharded
  /// stateful query on the stream shares a second covering attribute, and a
  /// surfaced refusal otherwise (see StatsReport "hot-key splits:" and the
  /// sase_partition_hotkey_split_* series). Mitigation arms the sketch even
  /// without a metrics registry. Off by default: a secondary split rebuilds
  /// the shard engines at a quiesce point, a deliberate operator opt-in.
  bool hotkey_mitigation = false;
  /// Sketch-share percentage (of a stream's keyed events) at which a key is
  /// split. Also re-checked every `hotkey_min_events` dispatched events, so
  /// the trigger is deterministic in the event sequence.
  int hotkey_split_threshold = 50;
  uint64_t hotkey_min_events = 4096;
  /// Optional event-lifecycle tracer (not owned). Sampled events accumulate
  /// partition -> ring -> operator -> merge -> emit spans. A standalone
  /// runtime samples at dispatch; embedded under SaseSystem the ingest tap
  /// owns sampling (TraceCollector::SetExternalSampler) and adds the
  /// "ingest" span.
  obs::TraceCollector* tracer = nullptr;
};

/// The sharded parallel execution runtime: stands between the event bus and
/// N+1 private QueryEngine instances, scaling the complex event processor
/// across cores while producing byte-identical output to serial execution.
///
///   StreamBus / sources (dispatcher thread)
///     -> Partitioner: key-hash routing (TagId) + per-stream batching
///        -> SPSC ring -> shard worker 0 .. N-1 (own QueryEngine each)
///        -> SPSC ring -> broadcast worker (non-shardable queries, all
///                        events)
///     <- OutputMerger: re-sequences tagged shard outputs into serial
///        dispatch order; user callbacks fire on the dispatcher thread.
///
/// Shardable queries (see Partitioner::Shardable) are mirrored into every
/// shard engine under the same QueryId; each shard evaluates only its key
/// partition's events, so the union of shard outputs equals the serial
/// result set, and the merger restores the serial emission order. Everything
/// else runs serially on the broadcast worker, which receives the full
/// stream.
///
/// Named input streams: queries with a `FROM <stream>` clause route through
/// the runtime exactly like default-input queries — feed their events in via
/// OnStreamEvent. Each stream keeps its own dispatch log and clock; the
/// merge order across streams is the dispatch interleaving, i.e. the order
/// the serial engine would have seen the OnEvent/OnStreamEvent calls.
///
/// Cadence: every RuntimeConfig::merge_interval dispatched events end a
/// round, and so does the first dispatch after the dispatcher was idle for
/// kIdleGapNs (before that event joins the next round). A round hands each
/// hosting worker exactly one batch — its pending events under their own
/// progress claim, or, when it has none, the per-stream clocks that unstick
/// a quiet shard's tail negations. Such a clock only releases deferrals; the
/// sweep that also prunes expired state over every plan runs at the quiesce
/// points (WaitIdle clocks every worker). Delivery is not tied to rounds:
/// every dispatch reads the hosting workers' acknowledged claims and, once
/// the slowest one has advanced, delivers every record they certify. A
/// batch carries one stream, so interleaved streams also cut a worker's
/// batch on a stream switch.
///
/// Memory bound: the merger's dispatch log is compacted below the merge
/// watermark after every delivery, so steady-state runtime memory
/// is O(shards x in-flight window) — at most queue_capacity + 1 rounds of
/// events per worker plus a few rounds of log — independent of total
/// stream length.
///
/// Layout changes: Resize(n) re-partitions mid-stream at a quiesce point,
/// handing each key's operator state to the shard that owns the key under
/// the new layout (see the method comment). The layout changes only through
/// an explicit Resize, checkpoint restore, or a hot-key split, which is
/// decided on an event-count cadence; nothing resizes on load or time.
///
/// Threading contract: Register/Unregister/OnEvent/OnStreamEvent/OnFlush/
/// WaitIdle are called from ONE dispatcher thread (the stream's producer).
/// Output callbacks fire on that same thread, during any OnEvent or
/// OnStreamEvent that sees the slowest hosting worker's claim advance, and
/// during OnFlush and WaitIdle — user code never needs to synchronize.
/// Events must arrive in stream order per input stream (non-decreasing
/// timestamp, increasing seq), the invariant StreamSource already enforces.
class ShardedRuntime : public EventSink {
 public:
  /// Hook run once per private engine at construction, before any query
  /// registration — install custom functions here. Functions installed into
  /// shard engines run on worker threads; keep them thread-safe or register
  /// the queries that call them outside the runtime.
  using EngineInit = std::function<void(QueryEngine&)>;

  explicit ShardedRuntime(const Catalog* catalog, RuntimeConfig config = {},
                          EngineInit engine_init = nullptr);
  ~ShardedRuntime() override;

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  /// Registers a continuous query; `callback` receives merged, serially
  /// ordered records on the dispatcher thread. Queries reading a named FROM
  /// stream are hosted like any other — their events arrive via
  /// OnStreamEvent. Quiesces the workers, so mid-stream registration is safe
  /// (the query sees the stream suffix, exactly as with a serial engine).
  Result<QueryId> Register(const std::string& text, OutputCallback callback,
                           PlanOptions options = {});

  /// Removes a query from every hosting engine. Records already emitted but
  /// not yet merge-safe are dropped, matching the serial engine's contract
  /// that an unregistered plan's undelivered state vanishes.
  Status Unregister(QueryId id);

  /// Re-partitions the runtime onto `shard_count` shards at a quiesce
  /// point, mid-stream, without changing a byte of output:
  ///
  ///   1. quiesce — drain every in-flight batch, broadcast the per-stream
  ///      clocks, deliver everything merge-safe (after this the merger holds
  ///      no undelivered records);
  ///   2. stop the worker threads; the broadcast engine (aggregates,
  ///      non-key queries) is carried over untouched — its state never
  ///      depends on the shard layout;
  ///   3. rehash the partition map, build fresh shard engines and register
  ///      every sharded query into them under its id;
  ///   4. hand each sharded query's per-key operator state — scan
  ///      partitions, negation candidates, parked tail-negation deferrals —
  ///      from the old shard engines to the fresh one that now owns the key
  ///      (QueryEngine::HandOffState), then drop the old engines;
  ///   5. resume the workers. Dispatch continues with the same global
  ///      dispatch index, so the merge order is seamless across the resize.
  ///
  /// Works for every registered query, with or without WITHIN. No-ops
  /// when `shard_count` already matches. Dispatcher thread only,
  /// like every other entry point.
  Status Resize(int shard_count);

  /// Captures the runtime's part of a checkpoint into `snap` at a quiesce
  /// point (WaitIdle: every in-flight batch drained, all merge-safe output
  /// delivered): the shard count and partition key, the dispatch index and
  /// merge ordinal (`delivered_runtime`), the routing flags, the per-stream
  /// dispatch stamps, the hot-key split table, every query (as
  /// `runtime_hosted`, in id order) and the engines' serialized operator
  /// state — one "plan" section per query per hosting engine
  /// (QueryEngine::SerializeState) plus one "engine" counter section per
  /// worker, each named by the worker's lane ("shard-<i>", "broadcast").
  /// The only refusal is kFailedPrecondition from inside a Resize (a
  /// callback fired at the resize quiesce point — the layout is mid-change).
  Status ExportCheckpoint(checkpoint::SystemSnapshot* snap);

  /// Maps a checkpointed QueryId to the output callback its restored query
  /// should deliver to (callbacks cannot be serialized).
  using CallbackResolver = std::function<OutputCallback(QueryId)>;

  /// Rebuilds the runtime's part of `snap` into this freshly constructed
  /// runtime (recovery bootstrap). The partition key must match the
  /// snapshot's; the shard count need not. The engines are laid out at the
  /// captured count first: the per-stream dispatch stamps and the hot-key
  /// split table are restored before any routing, every runtime-hosted
  /// query is re-registered under its id, and each hosting engine loads its
  /// sections (checkpoint::LoadEngineSections), so it holds exactly the
  /// stacks, buffers, parked deferrals and aggregate accumulators the
  /// checkpointed engine held. A Resize back to this runtime's configured
  /// count then hands each key's state to the shard that owns it, the same
  /// hand-off as any resize (and counted as one). The global dispatch clock
  /// and the merge ordinal continue from the checkpoint, so positions
  /// recorded before the crash stay comparable with indices issued after
  /// recovery. A snapshot without stream stamps was taken by a system
  /// without a runtime and restores nothing.
  Status RestoreCheckpoint(const checkpoint::SystemSnapshot& snap,
                           const CallbackResolver& callbacks);

  /// True while a Resize is mid-flight (only observable from callbacks
  /// fired at the resize quiesce point).
  bool resizing() const { return resizing_; }

  // EventSink: routes one default-input event (dispatcher thread).
  void OnEvent(const EventPtr& event) override;

  /// Routes one event of a named input stream (case-insensitive), the
  /// sharded counterpart of QueryEngine::OnStreamEvent. Only queries
  /// registered with `FROM <stream>` receive it.
  void OnStreamEvent(const std::string& stream, const EventPtr& event);

  /// End-of-stream barrier: flushes partial batches, waits for every worker
  /// to flush its engine (releasing tail-negation deferrals), then merges
  /// and delivers ALL remaining output in serial order.
  void OnFlush() override;

  /// Quiesces: blocks until every worker drained its queue, then delivers
  /// whatever output is safely ordered. Unlike OnFlush this does not end the
  /// stream — tail-negation deferrals stay parked.
  void WaitIdle();

  // --- introspection (dispatcher thread) ---
  int shard_count() const { return config_.shard_count; }
  size_t query_count() const { return queries_.size(); }
  /// True when `id` runs key-partitioned across the shards (false: hosted on
  /// the broadcast worker, or unknown id).
  bool IsSharded(QueryId id) const;
  uint64_t events_dispatched() const { return events_dispatched_; }
  uint64_t records_merged() const { return merger_.merged_count(); }
  const Partitioner& partitioner() const { return partitioner_; }

  // Dispatch-log health (the memory-bound guarantee, live — no quiesce).
  size_t dispatch_log_len() const { return merger_.log_len(); }
  size_t peak_dispatch_log_len() const { return merger_.peak_log_len(); }
  uint64_t log_compactions() const { return merger_.compaction_count(); }
  uint64_t log_entries_compacted() const { return merger_.compacted_entries(); }

  /// Aggregated engine counters across all workers (quiesces first).
  /// Continuous across resizes: counters of shard engines retired by a
  /// Resize are carried over, and the handed-off state adds nothing to
  /// them. The per-worker lines in StatsReport() show the CURRENT engines
  /// only — their counters restart at zero at a resize.
  QueryEngine::EngineStats Stats();

  // Resize health (live — no quiesce).
  uint64_t resize_count() const { return resizes_; }
  uint64_t grow_count() const { return grows_; }
  uint64_t shrink_count() const { return shrinks_; }
  // Hot-key mitigation health (live — no quiesce; dispatcher-thread state
  // read for reports and bench counters).
  size_t hotkey_active_splits() const { return partitioner_.split_count(); }
  uint64_t hotkey_spread_splits() const { return hotkey_spread_splits_; }
  uint64_t hotkey_secondary_splits() const { return hotkey_secondary_splits_; }
  uint64_t hotkey_split_refusals() const { return hotkey_split_refusals_; }
  /// Shared-scan activity summed over every worker engine. Reads the
  /// engines, so call from the dispatcher thread at a quiesce point
  /// (after WaitIdle or OnFlush).
  uint64_t shared_scan_hits() const;

  /// Fleet-wide runtime counters: the aggregated engine view plus dispatch,
  /// merge, dispatch-log and resize health (quiesces first).
  struct RuntimeStats {
    QueryEngine::EngineStats engine;
    uint64_t events_dispatched = 0;
    uint64_t records_merged = 0;
    size_t merge_pending = 0;
    size_t dispatch_log_len = 0;
    size_t peak_dispatch_log_len = 0;
    uint64_t log_compactions = 0;
    uint64_t log_entries_compacted = 0;
    size_t stream_count = 0;  // interned input streams (incl. default)
    // --- resize ---
    int shard_count = 0;           // current layout
    uint64_t resizes = 0;          // completed Resize() calls
    uint64_t grows = 0;            // resizes that increased the shard count
    uint64_t shrinks = 0;          // resizes that decreased it
  };
  RuntimeStats FullStats();

  /// Multi-line fleet view: per-worker engine lines, merger and dispatch-log
  /// state, and one line per input stream (events, queries, per-shard
  /// routing counts).
  std::string StatsReport();

  /// One slow-query offender with the worker lane that recorded it
  /// ("shard-3", "broadcast").
  struct SlowSample {
    std::string host;
    QueryEngine::SlowQuerySample sample;
  };

  /// Slow-query ring contents across every worker engine, newest first
  /// (merged by capture time). Quiesces, so the rings are settled.
  /// Dispatcher thread only.
  std::vector<SlowSample> SlowSamples();

  /// Liveness probe for /healthz, callable from ANY thread (unlike every
  /// other entry point): a worker is wedged when its queue holds batches but
  /// its progress counter has not advanced for `stall_ns`. The first
  /// observation of a stuck worker only starts its stall clock, so a probe
  /// must fire twice before declaring a wedge — poll it. Returns true and
  /// leaves `why` untouched when healthy; false with a diagnosis otherwise.
  bool Healthy(uint64_t stall_ns, std::string* why);

  /// Mirrors the runtime's counters and gauges into RuntimeConfig::metrics:
  /// dispatch/merge/resize counters, per-stream and per-shard event counts,
  /// queue occupancy and merge watermark lag (sampled live, pre-quiesce),
  /// then each worker engine's per-query counters. Safe to call any time
  /// from the dispatcher thread; no-op without a registry.
  void ScrapeMetrics();

 private:
  using Clocks = std::vector<std::pair<std::string, Timestamp>>;

  struct Worker {
    Worker(int index_in, size_t queue_capacity) : index(index_in), queue(queue_capacity) {}

    int index;  // mutated only at a resize quiesce (broadcast worker moves)
    std::unique_ptr<QueryEngine> engine;  // owned; touched only by `thread`
                                          // while batches are in flight
    SpscRing<EventBatch> queue;
    std::thread thread;

    // Dispatcher-side state.
    EventBatch pending;                // accumulating batch (one stream)
    uint64_t pending_last_global = 0;  // global index of pending's last event
    uint64_t batches_enqueued = 0;

    // Worker-side progress, read by the dispatcher. The batch counter is
    // advanced only after the WHOLE batch — events, clocks, flush —
    // finished, so batches_processed == batches_enqueued means the worker
    // is parked on its ring and its engine is safe to touch. progress_hi
    // republishes the highest batch progress claim (global dispatch index
    // below which this worker can emit nothing new).
    std::atomic<uint64_t> batches_processed{0};
    std::atomic<uint64_t> progress_hi{0};

    // Output capture: engine callbacks append under `out_mutex`; the
    // dispatcher swaps the buffer out when merging.
    std::mutex out_mutex;
    std::vector<TaggedRecord> out;
    uint64_t arrival_counter = 0;  // guarded by out_mutex

    // Observability (set at MakeWorker, constant afterwards). The lane names
    // the worker in trace dumps, metric labels and checkpoint engine-state
    // sections ("shard-3", "broadcast"); a carried-over broadcast worker
    // keeps its lane across resizes.
    std::string lane;
    obs::HistogramMetric* ring_wait = nullptr;  // null = metrics off
  };

  struct QueryEntry {
    OutputCallback callback;
    bool sharded = false;
    StreamId stream = kDefaultStream;
    // Registration material for shard rebuilds and checkpoints.
    std::string text;
    PlanOptions options;
    /// Whether the plan carries cross-event state (>1 positive component or
    /// any negation): the hot-key split policy's soundness input.
    bool stateful = false;
    /// Attribute names (beyond the shard key) whose equivalence class covers
    /// every component — hot-key secondary-partition candidates (see
    /// AnalyzedQuery::covering_attrs). Empty for stateless queries.
    std::vector<std::string> covering_attrs;
  };

  /// Registered-query counts per input stream; events of a stream nobody
  /// reads skip the worker handoff entirely (they still stamp the dispatch
  /// log, preserving the global order).
  struct StreamQueries {
    size_t sharded = 0;
    size_t broadcast = 0;
    /// Sharded stateful queries reading this stream: while > 0 a hot key
    /// may only be split by a covering secondary attribute.
    size_t sharded_stateful = 0;
  };

  int broadcast_index() const { return config_.shard_count; }
  Worker& broadcast_worker() { return *workers_[static_cast<size_t>(broadcast_index())]; }

  /// Fresh worker with a private engine (engine_init applied); used by the
  /// constructor for every worker and by Resize for the new shard set.
  std::unique_ptr<Worker> MakeWorker(int index);
  /// Parse/analyze `text` into a QueryEntry (shardability, input stream,
  /// stateful classification, covering attributes). Shared by Register and
  /// RestoreCheckpoint.
  Result<QueryEntry> AnalyzeEntry(const std::string& text,
                                  OutputCallback callback,
                                  PlanOptions options);
  /// Registers `entry` under `id` into its hosting engines and applies all
  /// bookkeeping (counters, queries_ map). The workers must be quiescent
  /// (WaitIdle, or a fresh runtime in restore).
  Status InstallQuery(QueryId id, QueryEntry entry);
  void WorkerLoop(Worker* worker);
  bool WorkerHostsQueries(const Worker& worker) const;
  OutputCallback CaptureCallback(Worker* worker, QueryId id, StreamId stream);
  StreamQueries& QueriesFor(StreamId stream);
  /// Shared dispatch tail of OnEvent/OnStreamEvent.
  void Dispatch(StreamId stream, const std::string& name,
                const EventPtr& event);
  /// `trace_id != 0` marks the event as trace-sampled in the pending batch.
  void AppendToWorker(Worker* worker, const std::string& stream,
                      const EventPtr& event, uint64_t global,
                      uint64_t trace_id);
  /// Pushes the worker's pending batch (if it has events, clocks or a flush
  /// marker), stamping the progress claim.
  void FlushBatch(Worker* worker, const Clocks* clocks, bool flush);
  /// Per-stream clocks of every stream with traffic.
  Clocks CurrentClocks() const;
  /// Ends a round between quiesce points (merge_interval events, or an idle
  /// gap): PushRound without clocking busy workers, with a dispatch->merge
  /// latency mark when that histogram is on.
  void EndRound();
  /// Pushes one batch to every hosting worker: its pending events under
  /// their own progress claim, with the current clocks attached only when
  /// `clock_busy` (the quiesce points, whose clocks also prune) or when it
  /// has no pending events.
  void PushRound(bool clock_busy);
  void CollectOutputs();
  /// Delivers what the acknowledged claims certify, when the slowest hosting
  /// worker's claim has advanced past the last delivery; otherwise costs one
  /// acquire load per hosting worker.
  void DeliverReady();
  void Deliver(std::vector<TaggedRecord> records);
  void WaitDrained(Worker* worker);
  /// Registers sharded query `id` into every shard engine (fresh capture
  /// callbacks); shared by Register and the shard rebuild.
  Status RegisterIntoShards(QueryId id, const QueryEntry& entry);
  /// Drops a query's bookkeeping (counters) and erases it; shared by
  /// Unregister and the rebuild's failed-re-registration path. Does NOT
  /// touch the engines.
  void DropQuery(std::map<QueryId, QueryEntry>::iterator it);
  /// The one way shard engines are rebuilt, behind Resize, secondary
  /// hot-key splits and their undoing, and RestoreCheckpoint's layout at
  /// the captured shard count: quiesce, stop the workers, carry
  /// the broadcast engine over, run `mutate` (the partitioner layout
  /// change) under health_mutex_, build fresh shard engines hosting every
  /// sharded query, hand the old engines' per-key state over under the new
  /// layout, resume.
  void RebuildShards(int shard_count, const std::function<void()>& mutate);
  /// Mitigation policy tick (config_.hotkey_mitigation): every
  /// hotkey_min_events dispatched events, scan each stream's sketch for
  /// unsplit keys whose guaranteed share crosses the threshold and split
  /// them (SplitHotKey). Runs on the dispatcher between batches.
  void MaybeMitigateHotKeys();
  /// Splits one hot key: spread when `stream` hosts no sharded stateful
  /// query; secondary sub-partitioning by CommonSecondaryAttr when one
  /// exists (rebuilds the shard engines); otherwise books a refusal.
  /// Returns true when a split was installed.
  bool SplitHotKey(StreamId stream, const Value& key);
  /// Covering attribute (beyond the shard key) shared by EVERY sharded
  /// stateful query reading `stream`; empty when none qualifies. First
  /// common candidate in the lowest-QueryId query's covering order, so the
  /// choice is deterministic.
  std::string CommonSecondaryAttr(StreamId stream) const;
  /// Re-examines active splits on `entry.stream` against a newly registered
  /// query (Register, before InstallQuery): spread splits are dropped when
  /// the newcomer is sharded stateful (they were sound only while none
  /// existed), and secondary splits whose attribute the newcomer's covering
  /// set lacks are unsplit with a shard rebuild. Keeps correctness ahead of
  /// mitigation.
  void ResolveSplitConflicts(const QueryEntry& entry);
  /// Books a finished delivery at `threshold`: records dispatch->merge
  /// watermark latency for pending merge marks, and closes sampled events'
  /// "merge" and "emit" spans. `t0`/`t1` bracket the callback loop.
  void NoteDelivered(uint64_t threshold, uint64_t t0, uint64_t t1);

  const Catalog* catalog_;
  RuntimeConfig config_;
  Partitioner partitioner_;
  OutputMerger merger_;
  EngineInit engine_init_;

  std::vector<std::unique_ptr<Worker>> workers_;  // shards + broadcast
  /// Guards workers_ layout changes (Resize's teardown/rebuild) against the
  /// cross-thread Healthy() probe — the ONLY reader of workers_ off the
  /// dispatcher thread. Dispatcher-thread readers stay lock-free.
  mutable std::mutex health_mutex_;
  /// Per-worker stall tracking for Healthy(): last observed batch progress
  /// and when it first looked stuck (0 = advancing). Guarded by
  /// health_mutex_; reset when the layout changes.
  struct HealthProbe {
    uint64_t batches = 0;
    uint64_t stuck_since_ns = 0;
  };
  std::vector<HealthProbe> health_;
  std::map<QueryId, QueryEntry> queries_;
  std::vector<StreamQueries> stream_queries_;  // indexed by StreamId
  QueryId next_id_ = 1;
  size_t sharded_queries_ = 0;
  size_t broadcast_queries_ = 0;
  /// True for the duration of a Resize; callbacks fired at the resize
  /// quiesce point see it and ExportCheckpoint refuses.
  bool resizing_ = false;

  // Resize health.
  /// Counters of shard engines retired by past resizes, so fleet-wide
  /// Stats() stays continuous across layout changes.
  QueryEngine::EngineStats retired_engine_stats_;
  uint64_t resizes_ = 0;
  uint64_t grows_ = 0;
  uint64_t shrinks_ = 0;
  // Hot-key mitigation bookkeeping (dispatcher thread only).
  uint64_t hotkey_check_global_ = 0;  // dispatch index of the last check
  uint64_t hotkey_spread_splits_ = 0;
  uint64_t hotkey_secondary_splits_ = 0;
  uint64_t hotkey_split_refusals_ = 0;
  /// (stream, type-tagged EncodeValue(key)) pairs already refused, so a
  /// pinned hot key books one refusal instead of one per check. The encoded
  /// rendering keeps differently-typed keys distinct where ToString aliases
  /// (int 7 vs string "7"). Cleared when the query set changes — a refusal
  /// may become splittable (or vice versa).
  std::set<std::pair<StreamId, std::string>> hotkey_refused_;

  uint64_t events_dispatched_ = 0;  // == global dispatch index of last event
  /// Delivery cadence (dispatcher thread only): the dispatch index the last
  /// round ended at, the claim the last delivery released through, and when
  /// the last event was dispatched.
  uint64_t round_end_ = 0;
  uint64_t delivered_through_ = 0;
  uint64_t last_dispatch_ns_ = 0;
  /// A dispatch this long after the previous one first ends the round. A
  /// scan-cycle boundary, not a knob: RFID readers report a cycle's readings
  /// together and then fall quiet, so a gap this long marks the end of a
  /// cycle, while dispatches within a burst are microseconds apart.
  static constexpr uint64_t kIdleGapNs = 1000000;
  // Memoized OnStreamEvent name resolution (raw -> lowered + interned id).
  std::string last_stream_raw_;
  std::string last_stream_name_;
  StreamId last_stream_id_ = kDefaultStream;
  bool last_stream_valid_ = false;
  // With single-stream traffic an event batch claims progress by itself
  // (its own events are the clock); once routed traffic spans multiple
  // input streams, every event batch instead carries the current per-stream
  // clocks so the claim also covers the other streams' parked deferrals —
  // per-batch merge progress under interleaved traffic (see FlushBatch).
  bool any_routed_ = false;
  StreamId routed_stream_ = kDefaultStream;
  bool multi_routed_ = false;

  // --- observability (dispatcher thread only) ---
  /// True when batches should carry an enqueue timestamp (metrics or tracer
  /// attached); one MonotonicNs() call per batch, not per event.
  bool obs_stamp_ = false;
  obs::HistogramMetric* dispatch_merge_latency_ = nullptr;
  /// Merge-watermark marks: {dispatch index, MonotonicNs at dispatch}, one
  /// per round; popped when a delivery's threshold passes the
  /// index, yielding the dispatch->merge latency sample.
  struct MergeMark {
    uint64_t global = 0;
    uint64_t ns = 0;
  };
  std::deque<MergeMark> merge_marks_;
  /// Sampled events awaiting delivery; closed into "merge"/"emit" spans by
  /// NoteDelivered once the merge watermark passes their dispatch index.
  struct OpenTrace {
    uint64_t global = 0;
    uint64_t trace_id = 0;
    uint64_t ns = 0;
  };
  std::deque<OpenTrace> open_traces_;
};

}  // namespace sase

#endif  // SASE_RUNTIME_SHARDED_RUNTIME_H_
