#include "runtime/sharded_runtime.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "obs/report.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/value_codec.h"

namespace sase {

ShardedRuntime::ShardedRuntime(const Catalog* catalog, RuntimeConfig config,
                               EngineInit engine_init)
    : catalog_(catalog), config_(config),
      partitioner_(catalog, config_.partition_key,
                   std::max(1, config_.shard_count)),
      merger_(config_.log_compact_min), engine_init_(std::move(engine_init)) {
  config_.shard_count = std::max(1, config_.shard_count);
  config_.merge_interval = std::max<size_t>(1, config_.merge_interval);
  stream_queries_.resize(partitioner_.streams().size());
  obs_stamp_ = config_.metrics != nullptr || config_.tracer != nullptr;
  if (config_.metrics != nullptr) {
    dispatch_merge_latency_ =
        config_.metrics->GetHistogram("sase_runtime_dispatch_merge_latency_ns");
  }
  // Hot-key accounting rides the metrics switch — without a registry the
  // dispatch path keeps its null-branch-only overhead contract — unless
  // mitigation is on, which consumes the sketch regardless of metrics.
  if (config_.metrics != nullptr || config_.hotkey_mitigation) {
    partitioner_.EnableHotKeyTracking(config_.hotkey_sketch_size);
  }
  // Either zeroed knob leaves mitigation armed but inert (an empty sketch
  // never reports a hot key; a zero cadence never runs the policy tick) —
  // an operator who opted in should hear about it rather than see silence.
  if (config_.hotkey_mitigation && config_.hotkey_sketch_size == 0) {
    SASE_LOG_WARN << "hotkey_mitigation is on but hotkey_sketch_size is 0: "
                     "no hot key can be detected, so no key will ever split";
  }
  if (config_.hotkey_mitigation && config_.hotkey_min_events == 0) {
    SASE_LOG_WARN << "hotkey_mitigation is on but hotkey_min_events is 0: "
                     "the mitigation check never runs, so no key will ever "
                     "split";
  }

  // shard workers 0..N-1, broadcast worker N.
  for (int i = 0; i <= config_.shard_count; ++i) {
    workers_.push_back(MakeWorker(i));
  }
  for (auto& worker : workers_) {
    worker->thread = std::thread(&ShardedRuntime::WorkerLoop, this, worker.get());
  }
}

std::unique_ptr<ShardedRuntime::Worker> ShardedRuntime::MakeWorker(int index) {
  auto worker = std::make_unique<Worker>(index, config_.queue_capacity);
  worker->engine = std::make_unique<QueryEngine>(catalog_, config_.time_config);
  worker->engine->set_scan_sharing(config_.scan_sharing);
  if (engine_init_) engine_init_(*worker->engine);
  worker->lane = index == config_.shard_count
                     ? std::string("broadcast")
                     : "shard-" + std::to_string(index);
  if (config_.metrics != nullptr) {
    worker->ring_wait = config_.metrics->GetHistogram(
        "sase_shard_ring_wait_ns{shard=\"" +
        (index == config_.shard_count ? std::string("broadcast")
                                      : std::to_string(index)) +
        "\"}");
    worker->engine->AttachMetrics(config_.metrics, worker->lane);
    worker->engine->ConfigureSlowQueryLog(config_.slow_query_threshold_ns,
                                          config_.slow_query_log_size);
  }
  return worker;
}

ShardedRuntime::~ShardedRuntime() {
  for (auto& worker : workers_) worker->queue.Close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void ShardedRuntime::WorkerLoop(Worker* worker) {
  EventBatch batch;
  while (worker->queue.Pop(&batch)) {
    obs::TraceCollector* tracer = config_.tracer;
    uint64_t pop_ns = 0;
    if (batch.enqueue_ns > 0) {
      pop_ns = obs::MonotonicNs();
      if (worker->ring_wait != nullptr) {
        worker->ring_wait->Record(
            static_cast<int64_t>(pop_ns - batch.enqueue_ns));
      }
    }
    if (batch.traced.empty() || tracer == nullptr) {
      if (batch.stream.empty()) {
        worker->engine->OnEvents(batch.events);
      } else {
        worker->engine->OnStreamEvents(batch.stream, batch.events);
      }
    } else {
      // The batch carries trace-sampled events: deliver per event (same
      // semantics as the wholesale call — OnEvents is a loop over OnEvent)
      // so each sampled event's "operator" span covers exactly its own
      // operator-chain work. Traced batches are rare even with tracing on.
      size_t next = 0;
      for (size_t i = 0; i < batch.events.size(); ++i) {
        bool traced =
            next < batch.traced.size() && batch.traced[next].index == i;
        uint64_t op_start = traced ? obs::MonotonicNs() : 0;
        if (batch.stream.empty()) {
          worker->engine->OnEvent(batch.events[i]);
        } else {
          worker->engine->OnStreamEvent(batch.stream, batch.events[i]);
        }
        if (traced) {
          const EventBatch::TracedEvent& mark = batch.traced[next++];
          if (pop_ns > 0) {
            tracer->AddSpan(mark.trace_id, "ring", worker->lane,
                            batch.enqueue_ns, pop_ns, mark.global);
          }
          tracer->AddSpan(mark.trace_id, "operator", worker->lane, op_start,
                          obs::MonotonicNs(), mark.global);
        }
      }
    }
    for (const auto& [stream, ts] : batch.clocks) {
      if (stream.empty()) {
        worker->engine->OnWatermark(ts, batch.prune);
      } else {
        worker->engine->OnStreamWatermark(stream, ts, batch.prune);
      }
    }
    if (batch.flush) worker->engine->OnFlush();
    // Publish the progress claim only after the engine finished the batch:
    // every record this worker can still emit now triggers strictly after
    // progress_hi in global dispatch order.
    if (batch.progress_hi > 0) {
      worker->progress_hi.store(batch.progress_hi, std::memory_order_release);
    }
    // Ack only once the whole batch — events, clocks, flush — is done;
    // WaitDrained relies on this to know the engine is quiescent.
    worker->batches_processed.fetch_add(1, std::memory_order_release);
  }
}

OutputCallback ShardedRuntime::CaptureCallback(Worker* worker, QueryId id,
                                               StreamId stream) {
  return [worker, id, stream](const OutputRecord& record) {
    std::lock_guard<std::mutex> lock(worker->out_mutex);
    TaggedRecord tagged;
    tagged.query = id;
    tagged.stream = stream;
    tagged.worker = worker->index;
    tagged.arrival = worker->arrival_counter++;
    tagged.record = record;
    worker->out.push_back(std::move(tagged));
  };
}

ShardedRuntime::StreamQueries& ShardedRuntime::QueriesFor(StreamId stream) {
  if (stream_queries_.size() <= stream) {
    stream_queries_.resize(static_cast<size_t>(stream) + 1);
  }
  return stream_queries_[stream];
}

Result<ShardedRuntime::QueryEntry> ShardedRuntime::AnalyzeEntry(
    const std::string& text, OutputCallback callback, PlanOptions options) {
  auto parsed = Parser::Parse(text);
  if (!parsed.ok()) return parsed.status();
  Analyzer analyzer(catalog_, config_.time_config);
  auto analyzed = analyzer.Analyze(std::move(parsed).value());
  if (!analyzed.ok()) return analyzed.status();
  std::string stream_name = ToLower(analyzed.value().parsed.from_stream);

  QueryEntry entry;
  entry.callback = std::move(callback);
  entry.sharded = Partitioner::Shardable(analyzed.value(), *catalog_,
                                         config_.partition_key, options);
  entry.stream = partitioner_.InternStream(stream_name);
  entry.text = text;
  entry.options = options;
  entry.stateful = analyzed.value().positive_slots.size() > 1 ||
                   !analyzed.value().negations.empty();
  // Secondary-partition candidates: covering attributes beyond the shard
  // key (the key's own equivalence class is the primary routing, not a
  // sub-partition candidate).
  for (const std::string& attr : analyzed.value().covering_attrs) {
    if (!EqualsIgnoreCase(attr, config_.partition_key)) {
      entry.covering_attrs.push_back(attr);
    }
  }
  return entry;
}

Status ShardedRuntime::InstallQuery(QueryId id, QueryEntry entry) {
  StreamQueries& hosts = QueriesFor(entry.stream);
  if (entry.sharded) {
    SASE_RETURN_IF_ERROR(RegisterIntoShards(id, entry));
    ++sharded_queries_;
    ++hosts.sharded;
    if (entry.stateful) ++hosts.sharded_stateful;
  } else {
    Worker& host = broadcast_worker();
    auto result = host.engine->RegisterAs(
        id, entry.text, CaptureCallback(&host, id, entry.stream),
        entry.options);
    if (!result.ok()) return result.status();
    ++broadcast_queries_;
    ++hosts.broadcast;
  }
  queries_.emplace(id, std::move(entry));
  next_id_ = std::max(next_id_, id + 1);
  hotkey_refused_.clear();  // the query set changed; refusals may not hold
  return Status::Ok();
}

Result<QueryId> ShardedRuntime::Register(const std::string& text,
                                         OutputCallback callback,
                                         PlanOptions options) {
  auto entry = AnalyzeEntry(text, std::move(callback), options);
  if (!entry.ok()) return entry.status();

  // Quiesce so engine mutation cannot race in-flight batches; the push of
  // the next batch publishes the new plan to the worker.
  WaitIdle();

  // Active hot-key splits were sound for the query set that existed when
  // they were installed; a new stateful query can invalidate them.
  ResolveSplitConflicts(entry.value());

  QueryId id = next_id_;
  SASE_RETURN_IF_ERROR(InstallQuery(id, std::move(entry).value()));
  return id;
}

Status ShardedRuntime::RegisterIntoShards(QueryId id, const QueryEntry& entry) {
  for (int s = 0; s < config_.shard_count; ++s) {
    Worker* worker = workers_[static_cast<size_t>(s)].get();
    auto result = worker->engine->RegisterAs(
        id, entry.text, CaptureCallback(worker, id, entry.stream),
        entry.options);
    if (!result.ok()) {
      for (int undo = 0; undo < s; ++undo) {
        (void)workers_[static_cast<size_t>(undo)]->engine->Unregister(id);
      }
      return result.status();
    }
  }
  return Status::Ok();
}

Status ShardedRuntime::Unregister(QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  WaitIdle();
  if (it->second.sharded) {
    for (int s = 0; s < config_.shard_count; ++s) {
      (void)workers_[static_cast<size_t>(s)]->engine->Unregister(id);
    }
  } else {
    (void)broadcast_worker().engine->Unregister(id);
  }
  DropQuery(it);
  return Status::Ok();
}

void ShardedRuntime::DropQuery(std::map<QueryId, QueryEntry>::iterator it) {
  StreamQueries& hosts = QueriesFor(it->second.stream);
  if (it->second.sharded) {
    --sharded_queries_;
    --hosts.sharded;
    if (it->second.stateful) --hosts.sharded_stateful;
  } else {
    --broadcast_queries_;
    --hosts.broadcast;
  }
  queries_.erase(it);
  hotkey_refused_.clear();  // the query set changed; refusals may not hold
}

Status ShardedRuntime::Resize(int shard_count) {
  shard_count = std::max(1, shard_count);
  if (shard_count == config_.shard_count) return Status::Ok();
  int old_count = config_.shard_count;
  RebuildShards(shard_count,
                [this, shard_count] { partitioner_.Resize(shard_count); });
  ++resizes_;
  if (shard_count > old_count) {
    ++grows_;
  } else {
    ++shrinks_;
  }
  return Status::Ok();
}

void ShardedRuntime::RebuildShards(int shard_count,
                                   const std::function<void()>& mutate) {
  resizing_ = true;

  // Quiesce: drain every batch, clock every worker, deliver everything
  // merge-safe. After this the merger buffers no undelivered records (every
  // emitted record's trigger is at or below the dispatch point), so the
  // only state to carry across the rebuild lives in the engines.
  WaitIdle();

  // Park every worker thread; the engines are now exclusively ours.
  for (auto& worker : workers_) worker->queue.Close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }

  // The broadcast engine's state (running aggregates, non-key patterns) is
  // layout-independent — carry the worker over whole. The old shard
  // workers stay alive until their per-key state has moved; bank their
  // counters so fleet-wide Stats() stays continuous.
  int old_count = config_.shard_count;
  std::vector<std::unique_ptr<Worker>> retired;
  for (int s = 0; s < old_count; ++s) {
    retired_engine_stats_ += workers_[static_cast<size_t>(s)]->engine->Stats();
    retired.push_back(std::move(workers_[static_cast<size_t>(s)]));
  }
  std::unique_ptr<Worker> broadcast = std::move(workers_.back());
  {
    // The layout swap is the one moment workers_ is inconsistent; exclude
    // the cross-thread Healthy() probe for its duration and restart its
    // stall clocks (fresh workers start with zero progress by design).
    std::lock_guard<std::mutex> lock(health_mutex_);
    workers_.clear();
    health_.clear();
    config_.shard_count = shard_count;
    mutate();
    for (int i = 0; i < shard_count; ++i) workers_.push_back(MakeWorker(i));
    broadcast->index = shard_count;
    broadcast->queue.Reopen();
    workers_.push_back(std::move(broadcast));
  }

  // Fresh engines host every sharded query under its id, registered in id
  // (= registration) order so shared-scan groups form as they originally
  // did.
  std::vector<QueryId> failed;
  for (const auto& [id, entry] : queries_) {
    if (!entry.sharded) continue;
    Status status = RegisterIntoShards(id, entry);
    if (!status.ok()) {
      // Should be impossible (the same text registered before), but a
      // query silently absent from the engines while queries_ lists it
      // would drop its output forever — drop the query loudly instead.
      SASE_LOG_WARN << "shard rebuild could not re-register query " << id
                    << " (" << status.ToString() << "); the query is dropped";
      failed.push_back(id);
    }
  }
  for (QueryId id : failed) DropQuery(queries_.find(id));

  // Hand every key's operator state to the shard that owns it under the
  // new layout — the live routing, splits included.
  std::vector<QueryEngine*> from;
  std::vector<QueryEngine*> to;
  for (const auto& worker : retired) from.push_back(worker->engine.get());
  for (int s = 0; s < shard_count; ++s) {
    to.push_back(workers_[static_cast<size_t>(s)]->engine.get());
  }
  QueryEngine::HandOffState(
      from, to, [this](const std::string& stream, const Event& event) {
        return static_cast<size_t>(
            partitioner_.ShardFor(partitioner_.InternStream(stream), event));
      });
  retired.clear();

  for (auto& worker : workers_) {
    worker->thread = std::thread(&ShardedRuntime::WorkerLoop, this, worker.get());
  }
  resizing_ = false;
}

Status ShardedRuntime::ExportCheckpoint(checkpoint::SystemSnapshot* snap) {
  if (resizing_) {
    return Status::FailedPrecondition(
        "cannot checkpoint during a Resize: the shard layout is mid-change");
  }

  // Quiesce: after WaitIdle every in-flight batch is drained and all
  // merge-safe output is delivered, so the only live state is in the
  // engines — which is serialized directly below.
  WaitIdle();

  snap->shard_count = config_.shard_count;
  snap->partition_key = config_.partition_key;
  snap->events_dispatched = events_dispatched_;
  snap->delivered_runtime = merger_.merged_count();
  snap->any_routed = any_routed_;
  snap->routed_stream = routed_stream_;
  snap->multi_routed = multi_routed_;
  const std::vector<Partitioner::StreamState>& streams = partitioner_.streams();
  for (size_t i = 0; i < streams.size(); ++i) {
    snap->streams.push_back(checkpoint::SnapshotStream{
        static_cast<StreamId>(i), streams[i].name, streams[i].clock,
        streams[i].last_seq, streams[i].events});
  }
  for (const Partitioner::SplitInfo& split : partitioner_.Splits()) {
    snap->splits.push_back(checkpoint::SnapshotSplit{
        split.stream, static_cast<int>(split.mode), split.key,
        split.secondary_attr});
  }
  for (const auto& [id, entry] : queries_) {
    checkpoint::SnapshotQuery query;
    query.id = id;
    query.runtime_hosted = true;
    query.options = entry.options;
    query.text = entry.text;
    snap->queries.push_back(std::move(query));
  }

  // Direct operator-state serialization: one payload per query per hosting
  // engine (a sharded query has a plan instance in every shard engine),
  // plus each engine's own counters. The workers are parked on their rings
  // after WaitIdle, so reading the engines here is race-free.
  auto save_plan = [snap](const Worker& worker, QueryId id) -> Status {
    auto payload = worker.engine->SerializeState(id);
    if (!payload.ok()) return payload.status();
    // Payloads embed whole event tables; move, don't double-buffer.
    snap->engine_state.push_back(checkpoint::EngineStateSection{
        "plan", worker.lane, id, 1, std::move(payload).value()});
    return Status::Ok();
  };
  for (const auto& [id, entry] : queries_) {
    if (!entry.sharded) {
      SASE_RETURN_IF_ERROR(save_plan(broadcast_worker(), id));
      continue;
    }
    for (int s = 0; s < config_.shard_count; ++s) {
      SASE_RETURN_IF_ERROR(save_plan(*workers_[static_cast<size_t>(s)], id));
    }
  }
  for (const auto& worker : workers_) {
    snap->engine_state.push_back(checkpoint::EngineStateSection{
        "engine", worker->lane, 0, 1, worker->engine->SerializeEngineState()});
  }
  return Status::Ok();
}

Status ShardedRuntime::RestoreCheckpoint(const checkpoint::SystemSnapshot& snap,
                                         const CallbackResolver& callbacks) {
  if (events_dispatched_ != 0 || !queries_.empty()) {
    return Status::FailedPrecondition(
        "RestoreCheckpoint requires a freshly constructed runtime");
  }
  if (snap.streams.empty()) return Status::Ok();
  if (snap.partition_key != config_.partition_key) {
    return Status::InvalidArgument("runtime shape mismatch: checkpoint was "
                                   "taken with partition key '" +
                                   snap.partition_key + "'");
  }
  // Every captured worker wrote an engine-counter section, so a shard count
  // at or past the section count is corrupt: refuse it before building that
  // many engines.
  if (snap.shard_count < 1 ||
      static_cast<size_t>(snap.shard_count) >= snap.engine_state.size()) {
    return Status::InvalidArgument(
        "checkpoint names " + std::to_string(snap.shard_count) + " shards but "
        "carries " + std::to_string(snap.engine_state.size()) +
        " engine-state sections");
  }

  // Lay the engines out at the captured shape: the payloads address its
  // workers by lane. The runtime is fresh, so there is no state to move.
  const int shard_count = config_.shard_count;
  if (snap.shard_count != shard_count) {
    RebuildShards(snap.shard_count,
                  [this, &snap] { partitioner_.Resize(snap.shard_count); });
  }

  // Per-stream dispatch stamps first: all future routing reads them.
  for (size_t i = 0; i < snap.streams.size(); ++i) {
    const checkpoint::SnapshotStream& stream = snap.streams[i];
    if (stream.id != static_cast<StreamId>(i)) {
      return Status::InvalidArgument("snapshot stream ids are not dense");
    }
    partitioner_.RestoreStream(stream.name, stream.clock, stream.last_seq,
                               stream.events);
  }
  if (stream_queries_.size() < partitioner_.streams().size()) {
    stream_queries_.resize(partitioner_.streams().size());
  }

  // Hot-key splits before any routing: a secondary-split key's
  // sub-partition state lives on the shard the (key, secondary) sub-hash
  // picks, so the recovered process must route identically from the start.
  for (const checkpoint::SnapshotSplit& split : snap.splits) {
    if (split.stream >= partitioner_.streams().size()) {
      return Status::InvalidArgument(
          "hot-key split references unknown stream");
    }
    if (split.mode != static_cast<int>(Partitioner::SplitMode::kSpread) &&
        split.mode != static_cast<int>(Partitioner::SplitMode::kSecondary)) {
      return Status::InvalidArgument("unknown hot-key split mode " +
                                     std::to_string(split.mode));
    }
    partitioner_.Split(split.stream, split.key,
                       static_cast<Partitioner::SplitMode>(split.mode),
                       split.secondary_attr);
  }

  // Checkpointed queries in id (= registration) order, so shared-scan
  // groups form as they originally did; each plan's state is loaded
  // wholesale below, so registration position does not matter otherwise.
  // The workers idle on empty rings, so the engines are safe to touch, as
  // in Register.
  std::vector<const checkpoint::SnapshotQuery*> queries;
  for (const checkpoint::SnapshotQuery& query : snap.queries) {
    if (query.runtime_hosted) queries.push_back(&query);
  }
  std::sort(queries.begin(), queries.end(),
            [](const checkpoint::SnapshotQuery* a,
               const checkpoint::SnapshotQuery* b) { return a->id < b->id; });
  for (const checkpoint::SnapshotQuery* query : queries) {
    auto entry = AnalyzeEntry(query->text,
                              callbacks ? callbacks(query->id) : nullptr,
                              query->options);
    if (!entry.ok()) return entry.status();
    SASE_RETURN_IF_ERROR(InstallQuery(query->id, std::move(entry).value()));
  }
  for (const auto& worker : workers_) {
    bool shard = worker->index < config_.shard_count;
    std::vector<QueryId> hosted;
    for (const auto& [id, entry] : queries_) {
      if (entry.sharded == shard) hosted.push_back(id);
    }
    SASE_RETURN_IF_ERROR(checkpoint::LoadEngineSections(
        snap, worker->lane, hosted, worker->engine.get()));
  }

  // Continue the crashed process's dispatch clock and merge ordinal so
  // checkpointed positions compare directly with those issued from here on.
  events_dispatched_ = snap.events_dispatched;
  merger_.SeedDispatched(snap.events_dispatched);
  merger_.SeedMerged(snap.delivered_runtime);
  any_routed_ = snap.any_routed;
  routed_stream_ = snap.routed_stream;
  multi_routed_ = snap.multi_routed;
  hotkey_check_global_ = events_dispatched_;

  // Back to the configured shape through the ordinary per-key hand-off.
  return Resize(shard_count);
}

bool ShardedRuntime::IsSharded(QueryId id) const {
  auto it = queries_.find(id);
  return it != queries_.end() && it->second.sharded;
}

uint64_t ShardedRuntime::shared_scan_hits() const {
  uint64_t hits = 0;
  for (const auto& worker : workers_) {
    hits += worker->engine->shared_scan_hits();
  }
  return hits;
}

void ShardedRuntime::AppendToWorker(Worker* worker, const std::string& stream,
                                    const EventPtr& event, uint64_t global,
                                    uint64_t trace_id) {
  // One batch carries one stream; cut on a switch so the worker can route
  // the whole batch with a single stream lookup.
  if (!worker->pending.events.empty() && worker->pending.stream != stream) {
    FlushBatch(worker, nullptr, /*flush=*/false);
  }
  worker->pending.stream = stream;
  worker->pending.events.push_back(event);
  if (trace_id != 0) {
    worker->pending.traced.push_back(EventBatch::TracedEvent{
        trace_id, worker->pending.events.size() - 1, global});
  }
  worker->pending_last_global = global;
}

void ShardedRuntime::FlushBatch(Worker* worker, const Clocks* clocks,
                                bool flush) {
  if (worker->pending.events.empty() && clocks == nullptr && !flush) return;
  if (clocks != nullptr) {
    worker->pending.clocks = *clocks;
    // The clocks release every deferral triggered at or below the current
    // dispatch point, so the batch certifies the full prefix.
    worker->pending.progress_hi = events_dispatched_;
  } else if (!worker->pending.events.empty()) {
    if (multi_routed_) {
      // Interleaved streams: the batch's own events cannot vouch for the
      // other streams' parked deferrals, so the batch carries every
      // stream's current clock — the worker advances them before acking,
      // and the claim covers the dispatched prefix minus the one event
      // that may have been dispatched but not yet appended (a batch cut on
      // a stream switch flushes before the cutting event joins a batch).
      // This is the per-batch merge progress that keeps merges advancing
      // under heavily interleaved multi-stream traffic.
      worker->pending.clocks = CurrentClocks();
      worker->pending.progress_hi =
          events_dispatched_ > 0 ? events_dispatched_ - 1 : 0;
    } else {
      // Single-stream traffic: the batch's own events are the clock — any
      // record the worker can emit after them triggers later in dispatch
      // order.
      worker->pending.progress_hi = worker->pending_last_global;
    }
  }
  worker->pending.flush = flush;
  if (obs_stamp_) worker->pending.enqueue_ns = obs::MonotonicNs();
  ++worker->batches_enqueued;
  worker->queue.Push(std::move(worker->pending));
  worker->pending = EventBatch{};
}

void ShardedRuntime::OnEvent(const EventPtr& event) {
  Dispatch(kDefaultStream, std::string(), event);
}

void ShardedRuntime::OnStreamEvent(const std::string& stream,
                                   const EventPtr& event) {
  // Streams are few and arrive in runs; resolving (lowercase + intern) only
  // on a name change keeps the per-event dispatch path allocation-free.
  if (!last_stream_valid_ || stream != last_stream_raw_) {
    last_stream_raw_ = stream;
    last_stream_name_ = ToLower(stream);
    last_stream_id_ = partitioner_.InternStream(last_stream_name_);
    last_stream_valid_ = true;
  }
  Dispatch(last_stream_id_, last_stream_name_, event);
}

void ShardedRuntime::Dispatch(StreamId stream, const std::string& name,
                              const EventPtr& event) {
  // After an idle gap, end the round before this event joins it: the burst
  // before the gap reaches the workers now, not merge_interval events later.
  const uint64_t now_ns = obs::MonotonicNs();
  if (now_ns - last_dispatch_ns_ >= kIdleGapNs &&
      events_dispatched_ > round_end_) {
    EndRound();
  }
  last_dispatch_ns_ = now_ns;

  obs::TraceCollector* tracer = config_.tracer;
  uint64_t trace_id = 0;
  uint64_t trace_start = 0;
  if (tracer != nullptr && tracer->enabled()) {
    // Embedded under SaseSystem the ingest tap samples and stamps the
    // current slot; standalone, the dispatcher IS the ingest point.
    trace_id =
        tracer->external_sampler() ? tracer->current() : tracer->MaybeSample();
    if (trace_id != 0) trace_start = obs::MonotonicNs();
  }
  uint64_t global =
      merger_.NoteDispatched(stream, event->timestamp(), event->seq());
  events_dispatched_ = global;
  int shard = partitioner_.Route(stream, *event);

  const StreamQueries& hosts = QueriesFor(stream);
  if (hosts.sharded > 0 || hosts.broadcast > 0) {
    if (!any_routed_) {
      any_routed_ = true;
      routed_stream_ = stream;
    } else if (stream != routed_stream_) {
      multi_routed_ = true;
    }
    if (hosts.sharded > 0) {
      AppendToWorker(workers_[static_cast<size_t>(shard)].get(), name, event,
                     global, trace_id);
    }
    if (hosts.broadcast > 0) {
      AppendToWorker(&broadcast_worker(), name, event, global, trace_id);
    }
  }
  if (trace_id != 0) {
    // The span covers dispatch-log stamping, routing and the ring handoff
    // (including any backpressure block); the merge span opens here and
    // NoteDelivered closes it once the merge watermark passes `global`.
    uint64_t now = obs::MonotonicNs();
    tracer->AddSpan(trace_id, "partition", "dispatcher", trace_start, now,
                    global);
    open_traces_.push_back(OpenTrace{global, trace_id, now});
  }

  if (events_dispatched_ % config_.merge_interval == 0) EndRound();
  // Deliver as soon as the slowest hosting worker's claim has advanced, not
  // only at round ends.
  DeliverReady();
  if (config_.hotkey_mitigation) MaybeMitigateHotKeys();
}

void ShardedRuntime::MaybeMitigateHotKeys() {
  // Event-count cadence, not wall clock: the split decision (and therefore
  // the routing history) is a deterministic function of the event sequence,
  // which is what keeps mitigated runs byte-reproducible.
  if (config_.hotkey_min_events == 0 ||
      events_dispatched_ - hotkey_check_global_ < config_.hotkey_min_events) {
    return;
  }
  hotkey_check_global_ = events_dispatched_;
  for (size_t s = 0; s < partitioner_.streams().size(); ++s) {
    StreamId stream = static_cast<StreamId>(s);
    uint64_t keyed = partitioner_.keyed_events(stream);
    if (keyed < config_.hotkey_min_events) continue;
    for (const Partitioner::HotKeyStat& stat : partitioner_.HotKeys(stream)) {
      // Trigger on the guaranteed lower bound (count - error): sketch
      // overestimation alone can never split a key. Not monotone along the
      // count-sorted order, so scan the whole sketch.
      uint64_t guaranteed = stat.count > stat.error ? stat.count - stat.error : 0;
      if (guaranteed * 100 <
          static_cast<uint64_t>(config_.hotkey_split_threshold) * keyed) {
        continue;
      }
      if (partitioner_.IsSplit(stream, stat.key)) continue;
      (void)SplitHotKey(stream, stat.key);
    }
  }
}

bool ShardedRuntime::SplitHotKey(StreamId stream, const Value& key) {
  const StreamQueries& hosts = QueriesFor(stream);
  if (hosts.sharded == 0) return false;  // nothing routes by key; moot
  if (hosts.sharded_stateful == 0) {
    // Every sharded query reading the stream is stateless single-event:
    // any disjoint routing reproduces the serial result set (the merger
    // restores emission order), so spread the key round-robin. No engine
    // holds cross-event state for this stream — no rebuild.
    partitioner_.Split(stream, key, Partitioner::SplitMode::kSpread);
    ++hotkey_spread_splits_;
    SASE_LOG_INFO << "hot key " << key.ToString()
                  << " spread round-robin across " << config_.shard_count
                  << " shards";
    return true;
  }
  std::string secondary = CommonSecondaryAttr(stream);
  if (!secondary.empty()) {
    // Sub-partition by (key, secondary): every sharded stateful query on
    // the stream covers `secondary` on all components, so a match only ever
    // combines events agreeing on it — sub-hash routing keeps each
    // sub-partition whole on one shard. The key's existing state must move
    // with the routing: rebuild the shard engines.
    RebuildShards(config_.shard_count, [&] {
      partitioner_.Split(stream, key, Partitioner::SplitMode::kSecondary,
                         secondary);
    });
    ++hotkey_secondary_splits_;
    SASE_LOG_INFO << "hot key " << key.ToString()
                  << " sub-partitioned by secondary attribute '" << secondary
                  << "'";
    return true;
  }
  // No covering secondary attribute: correctness first — the key stays
  // pinned, and the refusal surfaces in StatsReport
  // and sase_partition_hotkey_split_refused_total. Booked once per key
  // until the query set changes.
  if (hotkey_refused_.insert({stream, EncodeValue(key)}).second) {
    ++hotkey_split_refusals_;
    SASE_LOG_WARN << "hot key " << key.ToString()
                  << " cannot be split: a sharded stateful query has no "
                     "second covering attribute; the key stays pinned";
  }
  return false;
}

std::string ShardedRuntime::CommonSecondaryAttr(StreamId stream) const {
  std::vector<std::string> candidates;
  bool first = true;
  for (const auto& [id, entry] : queries_) {
    if (!entry.sharded || !entry.stateful || entry.stream != stream) continue;
    if (first) {
      candidates = entry.covering_attrs;
      first = false;
      continue;
    }
    std::vector<std::string> kept;
    for (const std::string& attr : candidates) {
      for (const std::string& other : entry.covering_attrs) {
        if (EqualsIgnoreCase(attr, other)) {
          kept.push_back(attr);
          break;
        }
      }
    }
    candidates.swap(kept);
    if (candidates.empty()) break;
  }
  return candidates.empty() ? std::string() : candidates.front();
}

void ShardedRuntime::ResolveSplitConflicts(const QueryEntry& entry) {
  // Only a sharded stateful newcomer can invalidate a split: broadcast
  // queries read the whole stream regardless of routing, and stateless
  // sharded queries are sound under any routing.
  if (!entry.sharded || !entry.stateful) return;
  if (partitioner_.split_count() == 0) return;
  std::vector<Value> drop_spread;
  std::vector<Value> drop_secondary;
  for (const Partitioner::SplitInfo& split : partitioner_.Splits()) {
    if (split.stream != entry.stream) continue;
    if (split.mode == Partitioner::SplitMode::kSpread) {
      drop_spread.push_back(split.key);
      continue;
    }
    bool covered = false;
    for (const std::string& attr : entry.covering_attrs) {
      if (EqualsIgnoreCase(attr, split.secondary_attr)) {
        covered = true;
        break;
      }
    }
    if (!covered) drop_secondary.push_back(split.key);
  }
  // Spread splits existed only while the stream hosted no sharded stateful
  // query, so the shard engines hold no cross-event state for it — re-pin
  // the keys without a rebuild. (Mitigation re-splits later if still hot.)
  for (const Value& key : drop_spread) {
    (void)partitioner_.Unsplit(entry.stream, key);
    SASE_LOG_INFO << "hot-key spread of " << key.ToString()
                  << " dropped: a stateful query now reads the stream";
  }
  // Secondary splits whose attribute the newcomer does not cover: the
  // existing sub-partitioned state must collapse back onto the key's
  // primary shard — re-pin and rebuild.
  if (!drop_secondary.empty()) {
    RebuildShards(config_.shard_count, [&] {
      for (const Value& key : drop_secondary) {
        (void)partitioner_.Unsplit(entry.stream, key);
      }
    });
    for (const Value& key : drop_secondary) {
      SASE_LOG_INFO << "hot-key secondary split of " << key.ToString()
                    << " dropped: the new query does not cover its attribute";
    }
  }
}

ShardedRuntime::Clocks ShardedRuntime::CurrentClocks() const {
  Clocks clocks;
  for (const Partitioner::StreamState& state : partitioner_.streams()) {
    if (state.events > 0) clocks.emplace_back(state.name, state.clock);
  }
  return clocks;
}

void ShardedRuntime::EndRound() {
  if (dispatch_merge_latency_ != nullptr) {
    merge_marks_.push_back(MergeMark{events_dispatched_, obs::MonotonicNs()});
  }
  PushRound(/*clock_busy=*/false);
}

void ShardedRuntime::PushRound(bool clock_busy) {
  round_end_ = events_dispatched_;
  Clocks clocks = CurrentClocks();
  for (auto& worker : workers_) {
    if (!WorkerHostsQueries(*worker)) continue;
    if (!clock_busy && !worker->pending.events.empty()) {
      // A busy worker's own events are its clock.
      FlushBatch(worker.get(), nullptr, /*flush=*/false);
    } else if (!clocks.empty()) {
      // Between quiesce points a clock only releases deferrals. The prune
      // sweep over every plan's scan partitions and negation keys reclaims
      // only expired state, and an idle worker gains none.
      worker->pending.prune = clock_busy;
      FlushBatch(worker.get(), &clocks, /*flush=*/false);
    }
  }
}

bool ShardedRuntime::WorkerHostsQueries(const Worker& worker) const {
  if (worker.index == config_.shard_count) return broadcast_queries_ > 0;
  return sharded_queries_ > 0;
}

void ShardedRuntime::WaitDrained(Worker* worker) {
  Backoff backoff;
  while (worker->batches_processed.load(std::memory_order_acquire) !=
         worker->batches_enqueued) {
    backoff.Pause();
  }
}

void ShardedRuntime::WaitIdle() {
  PushRound(/*clock_busy=*/true);
  for (auto& worker : workers_) WaitDrained(worker.get());
  // With every queue drained, all emitted records are buffered here and any
  // future record triggers strictly later in dispatch order, so everything
  // at or below the current dispatch point is safe to release.
  CollectOutputs();
  delivered_through_ = events_dispatched_;
  bool obs_pending = !merge_marks_.empty() || !open_traces_.empty();
  uint64_t t0 = obs_pending ? obs::MonotonicNs() : 0;
  Deliver(merger_.DrainReady(events_dispatched_));
  if (obs_pending) {
    NoteDelivered(events_dispatched_, t0, obs::MonotonicNs());
  }
}

void ShardedRuntime::OnFlush() {
  for (auto& worker : workers_) {
    FlushBatch(worker.get(), nullptr, /*flush=*/true);
  }
  for (auto& worker : workers_) WaitDrained(worker.get());
  CollectOutputs();
  bool obs_pending = !merge_marks_.empty() || !open_traces_.empty();
  uint64_t t0 = obs_pending ? obs::MonotonicNs() : 0;
  Deliver(merger_.DrainFinal());
  if (obs_pending) {
    NoteDelivered(std::numeric_limits<uint64_t>::max(), t0,
                  obs::MonotonicNs());
  }
}

void ShardedRuntime::CollectOutputs() {
  for (auto& worker : workers_) {
    std::vector<TaggedRecord> drained;
    {
      std::lock_guard<std::mutex> lock(worker->out_mutex);
      drained.swap(worker->out);
    }
    if (!drained.empty()) merger_.Add(std::move(drained));
  }
}

void ShardedRuntime::DeliverReady() {
  uint64_t threshold = std::numeric_limits<uint64_t>::max();
  bool any = false;
  for (auto& worker : workers_) {
    if (!WorkerHostsQueries(*worker)) continue;
    threshold = std::min(
        threshold, worker->progress_hi.load(std::memory_order_acquire));
    any = true;
  }
  if (!any || threshold <= delivered_through_) return;
  delivered_through_ = threshold;
  CollectOutputs();
  bool obs_pending =
      (!merge_marks_.empty() && merge_marks_.front().global <= threshold) ||
      (!open_traces_.empty() && open_traces_.front().global <= threshold);
  uint64_t t0 = obs_pending ? obs::MonotonicNs() : 0;
  Deliver(merger_.DrainReady(threshold));
  if (obs_pending) NoteDelivered(threshold, t0, obs::MonotonicNs());
}

void ShardedRuntime::NoteDelivered(uint64_t threshold, uint64_t t0,
                                   uint64_t t1) {
  while (!merge_marks_.empty() && merge_marks_.front().global <= threshold) {
    if (dispatch_merge_latency_ != nullptr) {
      dispatch_merge_latency_->Record(
          static_cast<int64_t>(t0 - merge_marks_.front().ns));
    }
    merge_marks_.pop_front();
  }
  obs::TraceCollector* tracer = config_.tracer;
  while (!open_traces_.empty() && open_traces_.front().global <= threshold) {
    const OpenTrace& open = open_traces_.front();
    if (tracer != nullptr) {
      // "merge" = parked in the merger until its watermark passed;
      // "emit" = the delivery sweep that released it to user callbacks.
      tracer->AddSpan(open.trace_id, "merge", "merge", open.ns, t0,
                      open.global);
      tracer->AddSpan(open.trace_id, "emit", "dispatcher", t0, t1,
                      open.global);
    }
    open_traces_.pop_front();
  }
}

void ShardedRuntime::Deliver(std::vector<TaggedRecord> records) {
  for (TaggedRecord& tagged : records) {
    auto it = queries_.find(tagged.query);
    if (it == queries_.end() || !it->second.callback) continue;
    it->second.callback(tagged.record);
  }
}

QueryEngine::EngineStats ShardedRuntime::Stats() {
  WaitIdle();
  QueryEngine::EngineStats total = retired_engine_stats_;
  for (auto& worker : workers_) total += worker->engine->Stats();
  // A sharded query is mirrored into every shard engine; report logical
  // queries, not plan instances.
  total.queries = queries_.size();
  return total;
}

ShardedRuntime::RuntimeStats ShardedRuntime::FullStats() {
  RuntimeStats stats;
  stats.engine = Stats();  // quiesces
  stats.events_dispatched = events_dispatched_;
  stats.records_merged = merger_.merged_count();
  stats.merge_pending = merger_.pending_count();
  stats.dispatch_log_len = merger_.log_len();
  stats.peak_dispatch_log_len = merger_.peak_log_len();
  stats.log_compactions = merger_.compaction_count();
  stats.log_entries_compacted = merger_.compacted_entries();
  stats.stream_count = partitioner_.streams().size();
  stats.shard_count = config_.shard_count;
  stats.resizes = resizes_;
  stats.grows = grows_;
  stats.shrinks = shrinks_;
  return stats;
}

std::string ShardedRuntime::StatsReport() {
  WaitIdle();
  std::ostringstream out;
  out << obs::ReportLine("runtime")
             .Kv("shards", config_.shard_count)
             .Kv("queries", queries_.size())
             .Text("(" + obs::Kv("sharded", sharded_queries_) + " " +
                   obs::Kv("broadcast", broadcast_queries_) + ")")
             .Kv("dispatched", events_dispatched_)
             .Kv("merged", merger_.merged_count())
             .Kv("pending", merger_.pending_count())
             .Str();
  out << obs::ReportLine("dispatch log:")
             .Kv("len", merger_.log_len())
             .Kv("peak", merger_.peak_log_len())
             .Kv("compactions", merger_.compaction_count())
             .Text("(" + std::to_string(merger_.compacted_entries()) +
                   " entries reclaimed)")
             .Str();
  out << obs::ReportLine("resizes:")
             .Kv("total", resizes_)
             .Kv("up", grows_)
             .Kv("down", shrinks_)
             .Str();
  if (config_.hotkey_mitigation) {
    out << obs::ReportLine("hot-key splits:")
               .Kv("active", partitioner_.split_count())
               .Kv("spread", hotkey_spread_splits_)
               .Kv("secondary", hotkey_secondary_splits_)
               .Kv("refused", hotkey_split_refusals_)
               .Str();
  }
  for (size_t s = 0; s < partitioner_.streams().size(); ++s) {
    const Partitioner::StreamState& state = partitioner_.streams()[s];
    StreamQueries queries = s < stream_queries_.size() ? stream_queries_[s]
                                                       : StreamQueries{};
    std::string shards = "[";
    for (size_t i = 0; i < state.per_shard.size(); ++i) {
      if (i > 0) shards += " ";
      shards += std::to_string(state.per_shard[i]);
    }
    shards += "]";
    out << obs::ReportLine(
               "stream " + (state.name.empty() ? "<default>" : state.name) +
               ":")
               .Kv("events", state.events)
               .Kv("queries", std::to_string(queries.sharded) + "+" +
                                  std::to_string(queries.broadcast))
               .Kv("shards", shards)
               .Str();
    // Hot keys (space-saving sketch, armed only with metrics attached):
    // count is an overestimate by at most `err`; share is against the
    // stream's keyed-event total.
    std::vector<Partitioner::HotKeyStat> hot =
        partitioner_.HotKeys(static_cast<StreamId>(s));
    uint64_t keyed = partitioner_.keyed_events(static_cast<StreamId>(s));
    if (!hot.empty() && keyed > 0) {
      if (hot.size() > 5) hot.resize(5);
      obs::ReportLine line("  hot keys:");
      for (const Partitioner::HotKeyStat& stat : hot) {
        std::string marker;
        if (partitioner_.IsSplit(static_cast<StreamId>(s), stat.key)) {
          marker = " split";
        } else if (hotkey_refused_.count({static_cast<StreamId>(s),
                                          EncodeValue(stat.key)}) > 0) {
          marker = " split-refused";
        }
        line.Text(stat.key.ToString() + "=" + std::to_string(stat.count) +
                  " (~" + std::to_string(stat.count * 100 / keyed) + "%" +
                  (stat.error > 0 ? " err<=" + std::to_string(stat.error)
                                  : std::string()) +
                  " shard " + std::to_string(stat.shard) + marker + ")");
      }
      out << line.Str();
    }
  }
  for (auto& worker : workers_) {
    QueryEngine::EngineStats stats = worker->engine->Stats();
    out << obs::ReportLine(worker->index == config_.shard_count
                               ? std::string("broadcast:")
                               : "shard " + std::to_string(worker->index) +
                                     ":")
               .Kv("events", stats.events_processed)
               .Kv("sequences", stats.matches_scanned)
               .Kv("outputs", stats.outputs)
               .Kv("errors", stats.eval_errors)
               .Str();
  }
  return out.str();
}

void ShardedRuntime::ScrapeMetrics() {
  obs::MetricsRegistry* metrics = config_.metrics;
  if (metrics == nullptr) return;

  // Live gauges first — quiescing would drain the queues and close the
  // merge watermark gap, so sample occupancy and lag pre-WaitIdle. The
  // occupancy sample is kept for the hot-key queue-lag attribution below.
  std::vector<int64_t> queue_sample(static_cast<size_t>(config_.shard_count),
                                    0);
  uint64_t min_progress = std::numeric_limits<uint64_t>::max();
  bool any_hosting = false;
  for (auto& worker : workers_) {
    if (worker->index < config_.shard_count) {
      int64_t occupancy = static_cast<int64_t>(worker->queue.ApproxSize());
      queue_sample[static_cast<size_t>(worker->index)] = occupancy;
      metrics
          ->GetGauge("sase_shard_queue_len{shard=\"" +
                     std::to_string(worker->index) + "\"}")
          ->Set(occupancy);
    }
    if (!WorkerHostsQueries(*worker)) continue;
    min_progress = std::min(
        min_progress, worker->progress_hi.load(std::memory_order_acquire));
    any_hosting = true;
  }
  uint64_t lag = any_hosting && min_progress < events_dispatched_
                     ? events_dispatched_ - min_progress
                     : 0;
  metrics->GetGauge("sase_runtime_merge_watermark_lag")
      ->Set(static_cast<int64_t>(lag));

  // Quiesce, then mirror the truth counters — the same numbers FullStats()
  // and StatsReport() read, so registry and report can never disagree.
  WaitIdle();
  metrics->GetCounter("sase_runtime_events_dispatched_total")
      ->Set(events_dispatched_);
  metrics->GetCounter("sase_runtime_records_merged_total")
      ->Set(merger_.merged_count());
  metrics->GetCounter("sase_runtime_log_compactions_total")
      ->Set(merger_.compaction_count());
  metrics->GetCounter("sase_runtime_resizes_total{direction=\"up\"}")
      ->Set(grows_);
  metrics->GetCounter("sase_runtime_resizes_total{direction=\"down\"}")
      ->Set(shrinks_);
  metrics->GetGauge("sase_runtime_shards")->Set(config_.shard_count);
  metrics->GetGauge("sase_runtime_merge_pending")
      ->Set(static_cast<int64_t>(merger_.pending_count()));
  metrics->GetGauge("sase_runtime_dispatch_log_len")
      ->Set(static_cast<int64_t>(merger_.log_len()));

  std::vector<uint64_t> per_shard(static_cast<size_t>(config_.shard_count), 0);
  for (const Partitioner::StreamState& state : partitioner_.streams()) {
    metrics
        ->GetCounter("sase_stream_events_total{stream=\"" +
                     (state.name.empty() ? std::string("<default>")
                                         : state.name) +
                     "\"}")
        ->Set(state.events);
    for (size_t i = 0; i < state.per_shard.size() && i < per_shard.size();
         ++i) {
      per_shard[i] += state.per_shard[i];
    }
  }
  for (size_t i = 0; i < per_shard.size(); ++i) {
    metrics
        ->GetCounter("sase_shard_events_total{shard=\"" + std::to_string(i) +
                     "\"}")
        ->Set(per_shard[i]);
  }
  // Hot-key accounting. Sketch counts are dispatcher-maintained truth;
  // queue-lag attribution uses the PRE-quiesce occupancy sample of the
  // key's owning shard (a drained queue would always read 0). A key evicted
  // from the sketch keeps its last mirrored series — the sketch bounds live
  // tracking, not registry cardinality, which stays <= kHotKeyFanout new
  // series per stream per scrape.
  if (partitioner_.hotkey_tracking()) {
    constexpr size_t kHotKeyFanout = 5;
    for (size_t s = 0; s < partitioner_.streams().size(); ++s) {
      StreamId stream = static_cast<StreamId>(s);
      uint64_t keyed = partitioner_.keyed_events(stream);
      const std::string& name = partitioner_.streams()[s].name;
      std::string stream_label = name.empty() ? std::string("<default>") : name;
      metrics
          ->GetCounter("sase_partition_keyed_events_total{stream=\"" +
                       stream_label + "\"}")
          ->Set(keyed);
      std::vector<Partitioner::HotKeyStat> hot = partitioner_.HotKeys(stream);
      if (hot.size() > kHotKeyFanout) hot.resize(kHotKeyFanout);
      for (const Partitioner::HotKeyStat& stat : hot) {
        std::string labels = "{stream=\"" + stream_label + "\",key=\"" +
                             stat.key.ToString() + "\"}";
        metrics->GetCounter("sase_partition_hotkey_events_total" + labels)
            ->Set(stat.count);
        metrics->GetGauge("sase_partition_hotkey_share_percent" + labels)
            ->Set(keyed == 0
                      ? 0
                      : static_cast<int64_t>(stat.count * 100 / keyed));
        metrics->GetGauge("sase_partition_hotkey_shard" + labels)
            ->Set(stat.shard);
        metrics->GetGauge("sase_partition_hotkey_queue_lag" + labels)
            ->Set(queue_sample[static_cast<size_t>(stat.shard)]);
      }
    }
  }
  // Hot-key mitigation outcomes (only meaningful with mitigation on; the
  // series stay absent otherwise, like every other gated family).
  if (config_.hotkey_mitigation) {
    metrics->GetCounter("sase_partition_hotkey_splits_total{mode=\"spread\"}")
        ->Set(hotkey_spread_splits_);
    metrics
        ->GetCounter("sase_partition_hotkey_splits_total{mode=\"secondary\"}")
        ->Set(hotkey_secondary_splits_);
    metrics->GetCounter("sase_partition_hotkey_split_refused_total")
        ->Set(hotkey_split_refusals_);
    metrics->GetGauge("sase_partition_hotkey_split_active")
        ->Set(static_cast<int64_t>(partitioner_.split_count()));
  }
  // Per-query operator counters and occupancy gauges, per hosting engine.
  for (auto& worker : workers_) worker->engine->ScrapeMetrics();
}

std::vector<ShardedRuntime::SlowSample> ShardedRuntime::SlowSamples() {
  WaitIdle();
  std::vector<SlowSample> merged;
  for (auto& worker : workers_) {
    for (const QueryEngine::SlowQuerySample& sample :
         worker->engine->SlowSamples()) {
      merged.push_back(SlowSample{worker->lane, sample});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const SlowSample& a, const SlowSample& b) {
              return a.sample.at_ns > b.sample.at_ns;
            });
  return merged;
}

bool ShardedRuntime::Healthy(uint64_t stall_ns, std::string* why) {
  std::lock_guard<std::mutex> lock(health_mutex_);
  uint64_t now = obs::MonotonicNs();
  if (health_.size() != workers_.size()) {
    health_.assign(workers_.size(), HealthProbe{});
  }
  bool healthy = true;
  for (size_t i = 0; i < workers_.size(); ++i) {
    Worker& worker = *workers_[i];
    uint64_t batches =
        worker.batches_processed.load(std::memory_order_acquire);
    size_t queued = worker.queue.ApproxSize();
    HealthProbe& probe = health_[i];
    if (queued == 0 || batches != probe.batches) {
      // Empty queue or visible progress: not wedged, restart the clock.
      probe.batches = batches;
      probe.stuck_since_ns = 0;
      continue;
    }
    if (probe.stuck_since_ns == 0) {
      probe.stuck_since_ns = now;  // first stuck sighting arms the clock
      continue;
    }
    if (now - probe.stuck_since_ns >= stall_ns) {
      healthy = false;
      if (why != nullptr) {
        *why = worker.lane + " wedged: " + std::to_string(queued) +
               " queued batch(es), no progress for " +
               std::to_string((now - probe.stuck_since_ns) / 1000000) + " ms";
      }
    }
  }
  return healthy;
}

}  // namespace sase
