#ifndef SASE_SYSTEM_SASE_SYSTEM_H_
#define SASE_SYSTEM_SASE_SYSTEM_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "checkpoint/checkpoint_policy.h"
#include "checkpoint/snapshot.h"
#include "cleaning/pipeline.h"
#include "core/catalog.h"
#include "core/stream.h"
#include "db/archiver.h"
#include "db/database.h"
#include "db/ons.h"
#include "db/sql_executor.h"
#include "db/track_trace.h"
#include "engine/query_engine.h"
#include "obs/http_endpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rfid/simulator.h"
#include "rfid/workload.h"
#include "runtime/sharded_runtime.h"
#include "system/report.h"

namespace sase {

/// System-wide configuration knobs.
struct SystemConfig {
  NoiseModel noise;                    // reader imperfection model
  TimeConfig time_config;              // logical tick length
  uint64_t seed = 42;                  // simulator noise seed
  int64_t raw_units_per_tick = 1000;   // device clock granularity (ms/tick)
  int64_t smoothing_window_ticks = 3;  // temporal smoothing reach
  bool archive_raw_events = true;      // keep an events table for ad-hoc SQL
  bool echo_reports = false;           // print UI channels to stdout

  /// Complex-event-processor parallelism: with shard_count >= 2 a
  /// ShardedRuntime is attached to the event bus and monitoring queries that
  /// do not call database functions — including named FROM-stream readers —
  /// execute across `shard_count` worker threads, partitioned by
  /// `partition_key`. Archiving rules and function-calling (hybrid
  /// stream+database) queries always run on the serial engine so that only
  /// the simulation thread touches the Event Database. 0/1 = fully serial
  /// (the seed behavior) — unless durable checkpointing is enabled, which
  /// attaches a single-shard runtime so pure stream queries live on the
  /// engines the checkpoint subsystem knows how to rebuild.
  int shard_count = 1;
  std::string partition_key = "TagId";
  /// The runtime's one cadence, dispatched events per round; see
  /// RuntimeConfig::merge_interval.
  size_t runtime_merge_interval = 256;
  /// Hot-key mitigation: when a key's share of a stream's keyed events
  /// reaches `hotkey_split_threshold` percent (after `hotkey_min_events`
  /// keyed events), the runtime splits the key — round-robin spread for
  /// replicable query sets, secondary sub-partitioning when every sharded
  /// stateful query shares a second covering attribute, and a surfaced
  /// refusal otherwise. Output stays byte-identical to serial either way.
  /// Requires shard_count >= 2 (a runtime); see RuntimeConfig and
  /// docs/operations.md.
  bool hotkey_mitigation = false;
  int hotkey_split_threshold = 50;
  uint64_t hotkey_min_events = 4096;
  /// Compile structurally identical monitoring queries onto one shared NFA
  /// per engine (multi-query sharing; see engine/shared_scan.h). Applies to
  /// the runtime's worker engines AND the serial engine. Checkpoints taken
  /// with sharing on must be recovered with sharing on.
  bool scan_sharing = false;
  /// Durable checkpoint & crash recovery: with `checkpoint.dir` set, every
  /// published event is write-ahead journaled there, Checkpoint() persists
  /// a quiesce-point snapshot (and the CheckpointPolicy thresholds take
  /// them automatically), and SaseSystem::Recover rebuilds a system that
  /// resumes byte-identical output after a crash. Knobs and recovery
  /// walkthrough: src/checkpoint/checkpoint_policy.h and docs/recovery.md.
  checkpoint::CheckpointConfig checkpoint;
  /// Observability (src/obs/): `obs.metrics_enabled` attaches a
  /// MetricsRegistry spanning the engine, runtime and checkpoint layers
  /// (scrape with ScrapeMetrics() + RenderPrometheus(), or the console's
  /// `.metrics`); `obs.trace_sample_every = N` samples every Nth published
  /// event into a Chrome-trace-JSON event-lifecycle trace, dumped to
  /// `obs.trace_path` at destruction (or on demand via `.trace dump`).
  /// Knob table: docs/observability.md.
  obs::ObsConfig obs;
};

/// One position in a delivery class's output sequence — what
/// OutputRecord's cursor stamp names and what SaseSystem::AckOutput
/// acknowledges. Positions are 1-based and deterministic per class
/// (runtime-merged vs serial-synchronous), so the same record carries the
/// same cursor before and after a crash.
struct OutputCursor {
  bool runtime_hosted = false;
  uint64_t position = 0;
};

/// Adapter for sinks that cannot acknowledge: drops any record whose
/// cursor stamp was already forwarded (recovery re-deliveries under
/// AckMode::kConsumer), passing each position through exactly once.
/// Delivery within a class is in cursor order, so a max-seen watermark per
/// class suffices. Unstamped records (position 0 — e.g. bare engine
/// callbacks) are always forwarded. Use via Wrap(), which shares one
/// watermark across the std::function copies:
///
///   auto sink = std::make_shared<IdempotentSink>(my_callback);
///   system.RegisterMonitoringQuery("q", text, IdempotentSink::Wrap(sink));
class IdempotentSink {
 public:
  explicit IdempotentSink(OutputCallback inner) : inner_(std::move(inner)) {}

  void operator()(const OutputRecord& record) {
    if (record.cursor_position != 0) {
      uint64_t& seen =
          record.cursor_runtime_hosted ? seen_runtime_ : seen_serial_;
      if (record.cursor_position <= seen) {
        ++dropped_;
        return;
      }
      seen = record.cursor_position;
    }
    if (inner_) inner_(record);
  }

  static OutputCallback Wrap(std::shared_ptr<IdempotentSink> sink) {
    return [sink](const OutputRecord& record) { (*sink)(record); };
  }

  /// Duplicates swallowed so far.
  uint64_t dropped() const { return dropped_; }

 private:
  OutputCallback inner_;
  uint64_t seen_runtime_ = 0;
  uint64_t seen_serial_ = 0;
  uint64_t dropped_ = 0;
};

/// The complete SASE system of Figure 1, assembled:
///
///   RFID devices (RetailSimulator)
///     -> Cleaning and Association (CleaningPipeline, ONS-backed)
///       -> event stream (StreamBus)
///         -> Complex Event Processor (QueryEngine)  -> user notifications
///         -> Event Database (db::Database via archiving rules)
///   + User Interface stand-in (ReportBoard channels)
///   + ad-hoc SQL over the Event Database (SqlExecutor)
///   + durable checkpoint & crash recovery (src/checkpoint/, optional)
///
/// See examples/retail_monitoring.cc for the full §4 demo scenario built on
/// this class.
class SaseSystem {
 public:
  explicit SaseSystem(StoreLayout layout, SystemConfig config = {});
  ~SaseSystem();  // out-of-line: the journal taps are defined in the .cc

  // --- component access ---
  const Catalog& catalog() const { return catalog_; }
  RetailSimulator& simulator() { return *simulator_; }
  CleaningPipeline& cleaning() { return *cleaning_; }
  QueryEngine& engine() { return *engine_; }
  /// The parallel execution runtime; nullptr when shard_count <= 1 and
  /// checkpointing is disabled.
  ShardedRuntime* runtime() { return runtime_.get(); }
  db::Database& database() { return database_; }
  db::Ons& ons() { return *ons_; }
  db::Archiver& archiver() { return *archiver_; }
  ReportBoard& reports() { return reports_; }
  StreamBus& event_bus() { return event_bus_; }
  const SystemConfig& config() const { return config_; }
  const StoreLayout& layout() const { return layout_; }
  /// The unified metrics registry; nullptr when `config.obs.metrics_enabled`
  /// is false (the zero-overhead mode — no layer takes timestamps).
  obs::MetricsRegistry* metrics() { return metrics_.get(); }
  /// The event-lifecycle trace collector (always present; dormant until
  /// SetSampling / `.trace on <N>` enables it).
  obs::TraceCollector& tracer() { return tracer_; }

  /// Refreshes every scrape-mirrored metric from its source-of-truth
  /// counter — runtime (quiesces it), serial engine, checkpoint/journal —
  /// so a following RenderPrometheus/WritePrometheus reads a consistent
  /// snapshot. No-op when metrics are disabled. Also refreshes the cached
  /// /statusz page served by the HTTP endpoint.
  void ScrapeMetrics();

  /// Human-readable system status (what HTTP /statusz and the console's
  /// `.statusz` show): registered-queries table with per-query operator
  /// latency summaries, runtime fleet view (shard/key skew, hot keys),
  /// checkpoint + ack cursor state, and the most recent slow-query samples.
  /// Dispatcher thread only — it quiesces the runtime; the HTTP handler
  /// serves a copy cached at the last ScrapeMetrics instead.
  std::string StatusReport();

  /// Merged slow-query samples across every host engine (runtime workers +
  /// the serial engine), newest first, each tagged with its host lane
  /// ("serial", "shard-N", "broadcast"). Dispatcher thread only (quiesces
  /// the runtime). Empty when the slow-query log is disarmed
  /// (`obs.slow_query_threshold_ns = 0` or metrics disabled).
  std::vector<ShardedRuntime::SlowSample> SlowSamples();

  /// Port the embedded HTTP endpoint is bound to (the resolved one when
  /// `obs.http_port = -1` asked for an ephemeral port); 0 when no endpoint
  /// is running.
  int http_port() const {
    return http_endpoint_ != nullptr ? http_endpoint_->port() : 0;
  }

  /// Track-and-trace view over the Event Database.
  db::TrackTrace track_trace() { return db::TrackTrace(&database_); }

  // --- high-level operations (what the demo UI exposes) ---

  /// Registers a product with the ONS and creates the tagged item in the
  /// simulator.
  void AddProduct(const TagInfo& tag);

  /// Registers a monitoring query: results go to the "Stream Processor
  /// Output" and "Message Results" channels and to `callback` if given.
  Result<QueryId> RegisterMonitoringQuery(const std::string& name,
                                          const std::string& text,
                                          OutputCallback callback = nullptr);

  /// Registers a data-transformation (archiving) rule; its RETURN clause
  /// is expected to call `_updateLocation` / `_updateContainment`.
  Result<QueryId> RegisterArchivingRule(const std::string& name,
                                        const std::string& text);

  /// Ad-hoc SQL against the Event Database; statement and result are
  /// logged to the "Database Report" channel.
  Result<db::ResultSet> ExecuteSql(const std::string& text);

  /// Publishes one event onto a named input stream: FROM-stream queries on
  /// the runtime (when enabled) and the serial engine receive it. Call from
  /// the simulation thread; events must arrive in stream order per stream.
  void PublishStreamEvent(const std::string& stream, const EventPtr& event);

  /// Advances the simulation to `until_tick` (readers poll every tick).
  void RunUntil(int64_t until_tick);

  /// Ends the stream: flushes the pipeline and the engine (releases
  /// tail-negation deferrals).
  void Flush();

  // --- durable checkpoint & crash recovery (src/checkpoint/) ---

  /// Writes a durable checkpoint: quiesces the runtime, persists a
  /// versioned snapshot (registered queries, per-stream dispatch stamps,
  /// runtime shape and hot-key splits, delivery and ack watermarks, every
  /// hosting engine's serialized operator state, and the Event Database
  /// via db::Dump) into `dir` — or into the configured checkpoint directory
  /// when `dir` is empty — and, when journaling into that same directory,
  /// rotates the event journal onto a fresh epoch and garbage-collects the
  /// superseded one.
  ///
  /// Refuses with kFailedPrecondition while a runtime Resize is mid-flight,
  /// and when a serial-engine query was registered from a pre-parsed AST
  /// (it has no text to re-register on recovery).
  Status Checkpoint(const std::string& dir = "");

  /// Re-attaches user callbacks on recovery (callbacks cannot be
  /// serialized): called once per recovered monitoring query with its
  /// registration name; return nullptr for report-channels-only delivery.
  using CallbackFactory = std::function<OutputCallback(const std::string&)>;

  /// Rebuilds a SaseSystem from a checkpoint directory: restores the Event
  /// Database, re-registers every query, loads each engine's serialized
  /// operator state, then replays the event journal suffix — suppressing
  /// exactly the records the crashed process already delivered (tracked by
  /// the journal's output marks) — so the recovered system resumes emitting
  /// byte-identical output from the record where the crash cut it off. The
  /// recovered system keeps journaling into `dir`.
  ///
  /// `config` supplies every knob the snapshot does not carry (noise, tick
  /// length, report echo...), the shard count included: the runtime
  /// restores at the shard count the snapshot was captured at and then
  /// resizes to `config.shard_count`, handing each key's operator state to
  /// its new shard as any Resize does, so a crash does not pin the shape.
  /// Only the partition key comes from the snapshot. The simulator and
  /// cleaning pipeline restart fresh from `layout` — recovery covers the
  /// event-processing layers, not simulated device state.
  static Result<std::unique_ptr<SaseSystem>> Recover(
      const std::string& dir, StoreLayout layout, SystemConfig config = {},
      CallbackFactory callbacks = nullptr);

  // --- exactly-once output (consumer-acknowledged cursor) ---

  /// Acknowledges every delivered record at or below `cursor.position` in
  /// its class — acks are cumulative, like Kafka offsets, so sinks may ack
  /// every Nth record. Under AckMode::kConsumer the durable acked cursor
  /// (journaled as batched kAckCursor records, persisted in the snapshot)
  /// is what recovery suppression resumes from: anything past it re-emits
  /// with its original cursor stamp. Under the default AckMode::kAuto
  /// delivery self-acks and this call is a harmless no-op. Rejects a
  /// zero cursor and positions beyond what was delivered.
  Status AckOutput(const OutputCursor& cursor);
  /// Convenience: acknowledges a delivered record by its cursor stamp.
  Status AckOutput(const OutputRecord& record) {
    return AckOutput(
        OutputCursor{record.cursor_runtime_hosted, record.cursor_position});
  }

  /// Forces the journal's pending ack batch to disk now (see
  /// CheckpointConfig::ack_commit_interval). Also happens at Flush() and
  /// before every snapshot. No-op when nothing is pending.
  Status CommitAcks();

  /// Cumulative consumer-acked positions per delivery class (== the
  /// delivered counters under AckMode::kAuto).
  uint64_t acked_runtime() const { return acked_runtime_; }
  uint64_t acked_serial() const { return acked_serial_; }

  /// One registered query as the checkpoint registry tracks it. Query ids
  /// are unique per host (the runtime and the serial engine assign ids
  /// independently), hence the host flag in the key.
  struct QueryInfo {
    QueryId id = 0;
    bool runtime_hosted = false;
    bool archiving = false;
    std::string name;
    std::string text;
  };
  /// Every query registered through this system, in registration order.
  const std::vector<QueryInfo>& registered_queries() const { return registry_; }

  /// Multi-line checkpoint/journal/recovery health; "" when checkpointing
  /// is disabled and no checkpoint was ever taken.
  std::string CheckpointReport() const;

  // --- checkpoint introspection ---
  uint64_t checkpoints_taken() const { return checkpoints_taken_; }
  /// Records delivered to monitoring callbacks (runtime-hosted + serial).
  uint64_t records_delivered() const {
    return delivered_runtime_ + delivered_serial_;
  }
  /// Journal records replayed by the Recover that built this system.
  uint64_t recovered_journal_records() const { return recovered_records_; }
  /// True when that recovery stopped early at a torn/corrupt journal tail.
  bool recovered_journal_truncated() const { return recovered_truncated_; }
  /// Re-deliveries the recovery gate swallowed (suppression quota consumed)
  /// over this system's lifetime.
  uint64_t suppressed_duplicates() const { return suppressed_duplicates_; }

 private:
  /// Snapshot + journal-scan bundle handed from Recover to the private
  /// recovery constructor and FinishRecovery.
  struct RecoverySpec {
    std::string dir;
    uint64_t epoch = 0;  // snapshot id; 0 = journal-only (no snapshot yet)
    const checkpoint::SystemSnapshot* snapshot = nullptr;  // null at epoch 0
  };

  SaseSystem(StoreLayout layout, SystemConfig config,
             const RecoverySpec* recovery);

  /// Journal taps around the event bus: Head write-ahead logs every
  /// published event before any processor sees it; Tail runs after every
  /// subscriber finished, appending output marks and driving the automatic
  /// checkpoint policy.
  class JournalHeadTap;
  class JournalTailTap;

  /// Observability taps around the event bus: Head is the FIRST subscriber
  /// (samples the event into the trace before the journal or any processor
  /// sees it), Tail the LAST (closes the "ingest" span after every
  /// subscriber — journal tail included — finished the event).
  class ObsHeadTap;
  class ObsTailTap;

  /// One-per-published-event trace bracket; also wraps PublishStreamEvent
  /// (named-stream events bypass the bus). Near-free while sampling is off.
  void ObsIngestBegin();
  void ObsIngestEnd();

  void LogEvent(const EventPtr& event);
  /// Monitoring-query delivery wrapper: report channels + user callback,
  /// behind the recovery suppression gate and the delivery counters.
  OutputCallback MakeDeliver(const std::string& name, OutputCallback callback,
                             bool runtime_hosted);
  bool JournalActive() const { return journal_ != nullptr && !recovering_; }
  void JournalEvent(const std::string& stream, const EventPtr& event);
  void JournalFlush();
  /// After one published event (or flush) is fully processed: appends an
  /// output mark if deliveries advanced, then evaluates the checkpoint
  /// policy and acts on it.
  void AfterEventProcessed();
  Status OpenJournal(uint64_t epoch, uint64_t segment);
  /// Registers the snapshot's queries, restores their state and replays
  /// the journal; runs with `recovering_` set so the taps stay dormant.
  Status FinishRecovery(const RecoverySpec& spec, const CallbackFactory& callbacks);

  Catalog catalog_;
  SystemConfig config_;
  StoreLayout layout_;
  db::Database database_;
  std::unique_ptr<db::Ons> ons_;
  std::unique_ptr<db::Archiver> archiver_;
  db::SqlExecutor sql_;

  ReportBoard reports_;
  // The channels every event or delivery appends to, resolved once.
  ReportChannel* cleaning_output_ = nullptr;
  ReportChannel* stream_output_ = nullptr;
  ReportChannel* message_results_ = nullptr;

  // --- observability (src/obs/) ---
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  obs::TraceCollector tracer_;
  std::unique_ptr<ObsHeadTap> obs_head_;
  std::unique_ptr<ObsTailTap> obs_tail_;
  /// Embedded scrape endpoint (`obs.http_port`); null when disabled. Its
  /// accept thread serves /metrics live (RenderPrometheus is thread-safe),
  /// /healthz via the runtime's cross-thread Healthy() probe, and /statusz
  /// from `statusz_` — a copy cached under `statusz_mutex_` at each
  /// ScrapeMetrics, because StatusReport() itself is dispatcher-only.
  std::unique_ptr<obs::HttpEndpoint> http_endpoint_;
  mutable std::mutex statusz_mutex_;
  std::string statusz_;
  uint64_t ingest_trace_ = 0;     // sampled id of the in-flight event (0 = not)
  uint64_t ingest_start_ns_ = 0;  // its "ingest" span start

  StreamBus event_bus_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<ShardedRuntime> runtime_;
  std::unique_ptr<CallbackSink> event_logger_;
  std::unique_ptr<EventSink> event_archiver_;
  std::unique_ptr<CleaningPipeline> cleaning_;
  std::unique_ptr<RetailSimulator> simulator_;

  // --- checkpoint subsystem state (all dispatcher-thread) ---
  std::unique_ptr<JournalHeadTap> journal_head_;
  std::unique_ptr<JournalTailTap> journal_tail_;
  std::unique_ptr<checkpoint::EventJournal> journal_;
  std::unique_ptr<checkpoint::CheckpointPolicy> checkpoint_policy_;
  std::vector<QueryInfo> registry_;
  uint64_t epoch_ = 0;  // current snapshot epoch (0 before first checkpoint)
  bool recovering_ = false;     // journal taps dormant during replay
  bool in_checkpoint_ = false;  // reentrancy guard (callback -> Checkpoint)
  bool journal_warned_ = false;
  // Delivery watermarks: absolute records delivered per host class, and the
  // recovery gate's remaining suppression quota per class. Runtime-merged
  // and serial-synchronous outputs interleave differently run-to-run (merge
  // cadence), but each class's own sequence is deterministic — hence
  // per-class counters.
  uint64_t delivered_runtime_ = 0;
  uint64_t delivered_serial_ = 0;
  uint64_t suppress_runtime_ = 0;
  uint64_t suppress_serial_ = 0;
  uint64_t last_mark_runtime_ = 0;
  uint64_t last_mark_serial_ = 0;
  // Consumer-acked cursor per class (mirrors delivered_* under kAuto) and
  // lifetime count of re-deliveries the recovery gate swallowed.
  uint64_t acked_runtime_ = 0;
  uint64_t acked_serial_ = 0;
  uint64_t suppressed_duplicates_ = 0;
  // Policy baseline + stats.
  uint64_t events_since_checkpoint_ = 0;
  uint64_t journal_bytes_at_checkpoint_ = 0;
  uint64_t checkpoints_taken_ = 0;
  uint64_t recovered_records_ = 0;
  bool recovered_ = false;
  bool recovered_truncated_ = false;
};

}  // namespace sase

#endif  // SASE_SYSTEM_SASE_SYSTEM_H_
