#ifndef SASE_ENGINE_QUERY_ENGINE_H_
#define SASE_ENGINE_QUERY_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/stream.h"
#include "engine/planner.h"
#include "engine/shared_scan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "util/time_util.h"

namespace sase {

/// Handle identifying a registered continuous query.
using QueryId = int64_t;

/// The Complex Event Processor (Figure 1, §3): hosts continuous
/// long-running queries over the event stream.
///
/// "For each monitoring task ... the user writes a query and registers it
/// as a continuous query with the complex event processor. The event
/// processor immediately starts executing the query ... and returns a
/// result (e.g., a notification) to the user every time the query is
/// satisfied. Such processing continues until the query is deleted by the
/// user." Archiving rules are registered the same way — their RETURN
/// clauses call `_updateLocation` / `_updateContainment`, and hybrid
/// stream+database queries call retrieval functions such as
/// `_retrieveLocation`.
///
/// The engine is an EventSink: subscribe it to the cleaning pipeline's
/// output bus (or feed it directly in tests).
class QueryEngine : public EventSink {
 public:
  explicit QueryEngine(const Catalog* catalog, TimeConfig time_config = {});

  /// The function registry shared by every query; database modules install
  /// their built-ins here before queries are registered.
  FunctionRegistry* functions() { return &functions_; }
  const Catalog& catalog() const { return *catalog_; }
  const TimeConfig& time_config() const { return time_config_; }

  /// Parses, analyzes and compiles `text`, then starts executing it against
  /// the stream. Every output record is delivered to `callback`.
  Result<QueryId> Register(const std::string& text, OutputCallback callback,
                           PlanOptions options = {});

  /// Registers an already-parsed query (used by tests that build ASTs).
  Result<QueryId> Register(ParsedQuery parsed, OutputCallback callback,
                           PlanOptions options = {});

  /// Registers under a caller-chosen id instead of an auto-assigned one.
  /// The sharded runtime mirrors one logical query into every shard engine
  /// under the same id, so per-query stats can be aggregated across shards
  /// without an id translation table. Fails with kAlreadyExists when the id
  /// is taken.
  Result<QueryId> RegisterAs(QueryId id, const std::string& text,
                             OutputCallback callback, PlanOptions options = {});

  /// Deletes a continuous query; subsequent events no longer feed it.
  Status Unregister(QueryId id);

  // --- multi-query NFA sharing ---
  //
  // With sharing enabled, queries whose scan structure is identical modulo
  // predicate constants (same filterless NFA, stream, options, slot count
  // and window boundedness — see SharedScanGroup::GroupKey) are compiled
  // onto ONE shared automaton; each query keeps its own
  // Selection -> Window -> Negation -> Transformation tail, so output is
  // byte-identical to dedicated plans. The toggle applies to registrations
  // made while it is on; flipping it does not recompile live queries.

  void set_scan_sharing(bool enabled) { sharing_enabled_ = enabled; }
  bool scan_sharing() const { return sharing_enabled_; }

  /// Events served from a group's buffered matches instead of re-running
  /// the scan (summed over live groups).
  uint64_t shared_scan_hits() const;
  size_t shared_group_count() const { return share_groups_.size(); }
  /// Heap bytes reserved by the groups' match-buffer arenas.
  uint64_t shared_arena_bytes() const;

  /// Delivers an event to the named input stream: only queries registered
  /// with `FROM <stream>` (case-insensitive) receive it. The unnamed
  /// OnEvent() below feeds the default stream — queries without a FROM
  /// clause ("If it is omitted, the query refers to a default system
  /// input", §2.1.1).
  void OnStreamEvent(const std::string& stream, const EventPtr& event);

  /// Batch form of OnStreamEvent: identical semantics (each event visits
  /// the stream's plans in id order), but the stream name is resolved once
  /// for the whole batch — the sharded runtime's workers deliver their
  /// single-stream batches through this.
  void OnStreamEvents(const std::string& stream,
                      const std::vector<EventPtr>& events);

  /// Batch form of OnEvent for the default input, the unnamed counterpart
  /// of OnStreamEvents: resolves the default-stream reader set once.
  ///
  /// Replay contract: the engine is a deterministic function of its call
  /// sequence (Register*/OnEvent/OnStreamEvent/OnWatermark), so re-issuing
  /// that sequence after a state restore reproduces the original
  /// trajectory exactly. Crash recovery replays the journaled event suffix
  /// on this contract.
  void OnEvents(const std::vector<EventPtr>& events);

  /// Access to a live plan (stats, explain); nullptr if unknown.
  const QueryPlan* plan(QueryId id) const;

  /// Registration text of a live query ("" when unknown or registered from
  /// a pre-parsed AST). The engine retains every text-registered query's
  /// source so the checkpoint subsystem can serialize registrations and
  /// re-register them on recovery before restoring their state.
  const std::string& query_text(QueryId id) const;

  /// One live query as the checkpoint subsystem sees it.
  struct RegisteredQuery {
    QueryId id = 0;
    std::string text;    // "" when registered from a pre-parsed AST
    std::string stream;  // lowercased FROM name; "" = default input
    PlanOptions options;
  };
  /// Every live query in id (= registration) order.
  std::vector<RegisteredQuery> RegisteredQueries() const;

  // --- direct operator-state serialization (checkpoints) ---
  //
  // SerializeState captures one live plan's full operator state (active
  // instance stacks, negation buffers + parked deferrals, running-aggregate
  // accumulators, counters) as a text payload; RestoreState loads such a
  // payload into a freshly registered plan of the same query text and
  // options — the payload's NFA signature guards against a mismatch.
  // Aggregates, stateful queries without WITHIN and serial-engine (hybrid)
  // queries all checkpoint this way (see docs/recovery.md).

  /// Serialized operator state of query `id`; NotFound for unknown ids.
  Result<std::string> SerializeState(QueryId id) const;

  /// Restores a SerializeState payload into query `id`'s plan, replacing
  /// its operator state wholesale. No partial restore: on any decode or
  /// shape error the engine is left unusable for `id` only if the payload
  /// matched its NFA signature — callers treat any error as fatal to the
  /// recovery attempt.
  Status RestoreState(QueryId id, const std::string& payload);

  /// Engine-level counters as a payload (events_processed), and their
  /// restore — keeps Stats()/StatsReport() continuous across recovery.
  std::string SerializeEngineState() const;
  Status RestoreEngineState(const std::string& payload);

  /// Routes one event held in the state of a plan reading `stream`
  /// (lowercased FROM name; "" = default input) to its new engine.
  using StreamStateRoute =
      std::function<size_t(const std::string& stream, const Event& event)>;

  /// Per-key state hand-off between engines hosting the same queries under
  /// the same ids — the sharded runtime's shard rebuild at Resize and
  /// hot-key splits. Moves every plan's and shared-scan group's
  /// key-partitioned operator state out of the engines in `from` into the
  /// engine of `to` that `route` picks for the events that state holds, in
  /// memory (QueryPlan::HandOff, SharedScanGroup::HandOff). Queries the
  /// `to` engines host drive the move; each group moves once. The `from`
  /// engines are left for disposal: their counters stay with them, and
  /// only the live-state gauges of the `to` operators (instances alive,
  /// candidates buffered) count the moved state.
  static void HandOffState(const std::vector<QueryEngine*>& from,
                           const std::vector<QueryEngine*>& to,
                           const StreamStateRoute& route);

  /// Advances stream time on every default-stream plan without delivering
  /// an event; releases tail-negation deferrals and, when `prune`, discards
  /// window-expired state (see QueryPlan::OnWatermark).
  void OnWatermark(Timestamp now, bool prune = true);

  /// Advances stream time on every plan reading the named input stream
  /// (case-insensitive) — the OnStreamEvent counterpart of OnWatermark. The
  /// sharded runtime broadcasts one clock per stream so quiet shards release
  /// named-stream tail-negation deferrals too.
  void OnStreamWatermark(const std::string& stream, Timestamp now,
                         bool prune = true);

  size_t query_count() const { return plans_.size(); }
  uint64_t events_processed() const { return events_processed_; }

  /// Aggregate operator counters across every registered plan; the sharded
  /// runtime sums these over its per-shard engines for a fleet-wide view.
  struct EngineStats {
    uint64_t queries = 0;
    uint64_t events_processed = 0;
    uint64_t matches_scanned = 0;
    uint64_t outputs = 0;
    uint64_t eval_errors = 0;

    EngineStats& operator+=(const EngineStats& other) {
      queries += other.queries;
      events_processed += other.events_processed;
      matches_scanned += other.matches_scanned;
      outputs += other.outputs;
      eval_errors += other.eval_errors;
      return *this;
    }
  };
  EngineStats Stats() const;

  /// One slow-query offender: a single per-event operator pass that took at
  /// least the configured threshold. `at_ns` is the MonotonicNs capture
  /// time, so logs merged across engines (serial + every shard) sort by
  /// recency without a shared clock.
  struct SlowQuerySample {
    QueryId query = 0;
    SequenceNumber seq = 0;
    Timestamp timestamp = 0;
    uint64_t duration_ns = 0;
    uint64_t at_ns = 0;
  };

  /// Arms the slow-query log: instrumented operator passes taking
  /// >= `threshold_ns` bump `sase_query_slow_events_total` and push a
  /// sample into a last-`capacity` ring. Requires an attached registry to
  /// observe anything (timing happens on the instrumented path only);
  /// threshold 0 disarms. Reconfiguring clears the ring.
  void ConfigureSlowQueryLog(uint64_t threshold_ns, size_t capacity);
  uint64_t slow_query_threshold_ns() const { return slow_threshold_ns_; }

  /// Ring contents, oldest first. Cheap (copies at most `capacity` samples).
  std::vector<SlowQuerySample> SlowSamples() const;

  /// Host label passed to AttachMetrics ("" while detached).
  const std::string& host_label() const { return host_label_; }

  /// Attaches a metrics registry under a host label ("serial", "shard-0",
  /// "broadcast"): the event path starts timing per-query operator wall time
  /// into `sase_query_op_latency_ns{host=...,query=...}` (wait-free
  /// recording), and ScrapeMetrics() mirrors the per-query truth counters.
  /// Detached (the default) the event path is the exact pre-instrumentation
  /// loop behind one null check. nullptr detaches.
  void AttachMetrics(obs::MetricsRegistry* metrics, std::string host_label);

  /// Mirrors the per-query operator counters and occupancy gauges (events
  /// seen, sequences, outputs, errors, live scan instances, negation buffer
  /// occupancy) into the attached registry. Counters are Set() from the
  /// plans' own stats — the registry shows the same truth StatsReport()
  /// prints, including across state restore. No-op when detached.
  void ScrapeMetrics() const;

  /// One line per registered query: id, input stream, plan options and the
  /// operator in/out counters — the processor-level view the demo UI's
  /// status panes summarize.
  std::string StatsReport() const;

  // EventSink:
  void OnEvent(const EventPtr& event) override;
  void OnFlush() override;

 private:
  struct Entry {
    std::unique_ptr<QueryPlan> plan;
    std::string stream;  // lowercased FROM name; empty = default input
    std::string text;    // registration source; "" for pre-parsed queries
    /// Operator wall-time histogram; non-null only while a registry is
    /// attached (resolved once per registration/attach, recorded wait-free).
    obs::HistogramMetric* op_latency = nullptr;
    QueryId id = 0;  // own key in plans_, for the slow-log cold path
    uint64_t slow_events = 0;  // passes at/over the slow-query threshold
    /// Shared-scan group serving this plan (engine-owned); null when the
    /// plan runs a dedicated scan.
    SharedScanGroup* group = nullptr;
    std::string group_key;  // key into share_groups_; "" when dedicated
  };

  /// One event into one plan, via the shared group when attached. The
  /// per-event scan epoch makes the first member reached feed the group's
  /// scan and every later member reuse its buffered matches.
  void DeliverEvent(Entry& entry, const EventPtr& event) {
    if (entry.group != nullptr) {
      entry.group->EnsureScanned(scan_epoch_, event);
      entry.plan->OnSharedMatches(event, entry.group->matches(),
                                  entry.group->match_count());
    } else {
      entry.plan->OnEvent(event);
    }
  }

  /// Instrumented delivery: times one plan's pass over one event into its
  /// op-latency histogram, diverting threshold breaches to the slow-query
  /// log's cold path. Callers have already checked metrics_ != nullptr.
  void DeliverTimed(Entry& entry, const EventPtr& event) {
    uint64_t start = obs::MonotonicNs();
    DeliverEvent(entry, event);
    uint64_t duration = obs::MonotonicNs() - start;
    entry.op_latency->Record(static_cast<int64_t>(duration));
    if (slow_threshold_ns_ != 0 && duration >= slow_threshold_ns_) {
      NoteSlow(entry, *event, duration, start + duration);
    }
  }

  /// Slow-log cold path: bumps the per-query counter and overwrites the
  /// oldest ring slot.
  void NoteSlow(Entry& entry, const Event& event, uint64_t duration_ns,
                uint64_t at_ns);

  /// Shared tail of every Register flavor: analyze, plan, install under
  /// `id` (advancing next_id_ past it). No id is consumed on failure.
  Result<QueryId> RegisterParsed(QueryId id, std::string text,
                                 ParsedQuery parsed, OutputCallback callback,
                                 PlanOptions options);

  /// `sase_query_<what>{host=...,query=<id>}` under this engine's host label.
  std::string QueryMetricName(const std::string& what, QueryId id) const;
  void ResolveEntryMetrics(QueryId id, Entry& entry);

  /// Readers of `key` in id order, cached across events (streams arrive in
  /// runs, so one slot suffices). map nodes are stable, so the Entry
  /// pointers survive unrelated register/unregister; any registration
  /// change invalidates the cache outright.
  const std::vector<Entry*>& Readers(const std::string& key) {
    if (!reader_cache_valid_ || reader_cache_stream_ != key) {
      reader_cache_.clear();
      for (auto& [id, entry] : plans_) {
        if (entry.stream == key) reader_cache_.push_back(&entry);
      }
      reader_cache_stream_ = key;
      reader_cache_valid_ = true;
    }
    return reader_cache_;
  }

  const Catalog* catalog_;
  TimeConfig time_config_;
  FunctionRegistry functions_;
  std::map<QueryId, Entry> plans_;
  /// Live shared-scan groups by GroupKey; a group dies with its last member.
  std::map<std::string, std::unique_ptr<SharedScanGroup>> share_groups_;
  bool sharing_enabled_ = false;
  /// Bumped once per delivered event; lets a group detect "already scanned
  /// this event for an earlier member".
  uint64_t scan_epoch_ = 0;
  QueryId next_id_ = 1;
  uint64_t events_processed_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::string host_label_;
  uint64_t slow_threshold_ns_ = 0;  // 0 = slow-query log disarmed
  std::vector<SlowQuerySample> slow_log_;  // ring of the last N offenders
  size_t slow_log_capacity_ = 0;
  size_t slow_pos_ = 0;  // next ring slot to overwrite
  std::vector<Entry*> reader_cache_;
  std::string reader_cache_stream_;
  bool reader_cache_valid_ = false;
};

}  // namespace sase

#endif  // SASE_ENGINE_QUERY_ENGINE_H_
