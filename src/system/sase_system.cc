#include "system/sase_system.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <sstream>

#include "checkpoint/journal.h"
#include "obs/report.h"
#include "db/dump.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "util/logging.h"

namespace sase {
namespace {

/// True when any node of the expression tree is a function call. Hybrid
/// stream+database queries (_retrieveLocation, _updateContainment, ...)
/// must run on the serial engine: the simulation thread owns the Event
/// Database, and shard workers must never touch it.
bool HasCall(const Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::kCall:
      return true;
    case ExprKind::kBinary: {
      const auto& node = static_cast<const BinaryExpr&>(expr);
      return HasCall(*node.left()) || HasCall(*node.right());
    }
    case ExprKind::kUnary:
      return HasCall(*static_cast<const UnaryExpr&>(expr).operand());
    case ExprKind::kAggregate: {
      const auto& node = static_cast<const AggregateExpr&>(expr);
      return node.arg() != nullptr && HasCall(*node.arg());
    }
    default:
      return false;
  }
}

/// True when the query must run on the serial engine even in sharded mode:
/// it calls database functions (the simulation thread owns the Event
/// Database, so shard workers must never touch it). Named FROM streams are
/// no longer a reason — the runtime routes them.
bool RequiresSerialEngine(const std::string& text) {
  auto parsed = Parser::Parse(text);
  if (!parsed.ok()) return false;  // let registration surface the error
  const ParsedQuery& query = parsed.value();
  if (query.where != nullptr && HasCall(*query.where)) return true;
  for (const auto& item : query.return_items) {
    if (HasCall(*item.expr)) return true;
  }
  return false;
}

/// Sink appending every cleaned event to the `events` archive table.
class RawEventArchiver : public EventSink {
 public:
  RawEventArchiver(db::Database* database, const Catalog* catalog)
      : catalog_(catalog) {
    table_ = database->GetTable("events");
    if (table_ == nullptr) {
      table_ = database
                   ->CreateTable("events", {{"Type", ValueType::kString},
                                            {"TagId", ValueType::kString},
                                            {"AreaId", ValueType::kInt},
                                            {"ProductName", ValueType::kString},
                                            {"Timestamp", ValueType::kInt}})
                   .value();
    }
    (void)table_->CreateIndex("TagId");
  }

  void OnEvent(const EventPtr& event) override {
    const EventSchema& schema = catalog_->schema(event->type());
    AttrIndex tag = schema.FindAttribute("TagId");
    AttrIndex area = schema.FindAttribute("AreaId");
    AttrIndex product = schema.FindAttribute("ProductName");
    (void)table_->Insert({Value(schema.name()),
                          tag >= 0 ? event->attribute(tag) : Value(),
                          area >= 0 ? event->attribute(area) : Value(),
                          product >= 0 ? event->attribute(product) : Value(),
                          Value(event->timestamp())});
  }

 private:
  const Catalog* catalog_;
  db::Table* table_;
};

/// A report channel's name as a metric label value: lowercase, with every
/// run of other characters one underscore ("Message Results" ->
/// "message_results"), so a scrape line stays `name value`.
std::string ChannelLabel(const std::string& name) {
  std::string label;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      label += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!label.empty() && label.back() != '_') {
      label += '_';
    }
  }
  return label;
}

/// /healthz wedge threshold: a worker whose queue holds batches while its
/// progress counter has not advanced for this long is reported unhealthy.
/// The first probe of a stuck worker only arms its stall clock (see
/// ShardedRuntime::Healthy), so an external poller flips to 503 within two
/// polls plus this span.
constexpr uint64_t kHealthzStallNs = 2ull * 1000 * 1000 * 1000;

}  // namespace

/// Write-ahead tap: first bus subscriber, so every published event reaches
/// the journal before any processor sees it.
class SaseSystem::JournalHeadTap : public EventSink {
 public:
  explicit JournalHeadTap(SaseSystem* system) : system_(system) {}
  void OnEvent(const EventPtr& event) override {
    system_->JournalEvent("", event);
  }
  void OnFlush() override { system_->JournalFlush(); }

 private:
  SaseSystem* system_;
};

/// Post-processing tap: last bus subscriber, runs after every processor
/// finished one event — appends delivery marks and drives the automatic
/// checkpoint policy.
class SaseSystem::JournalTailTap : public EventSink {
 public:
  explicit JournalTailTap(SaseSystem* system) : system_(system) {}
  void OnEvent(const EventPtr&) override { system_->AfterEventProcessed(); }
  void OnFlush() override { system_->AfterEventProcessed(); }

 private:
  SaseSystem* system_;
};

/// Trace-sampling tap: the very first bus subscriber, so a sampled event's
/// "ingest" span opens before the journal write-ahead or any processor.
class SaseSystem::ObsHeadTap : public EventSink {
 public:
  explicit ObsHeadTap(SaseSystem* system) : system_(system) {}
  void OnEvent(const EventPtr&) override { system_->ObsIngestBegin(); }

 private:
  SaseSystem* system_;
};

/// Trace-closing tap: the very last bus subscriber; closes the "ingest"
/// span after every subscriber (journal tail included) finished the event.
class SaseSystem::ObsTailTap : public EventSink {
 public:
  explicit ObsTailTap(SaseSystem* system) : system_(system) {}
  void OnEvent(const EventPtr&) override { system_->ObsIngestEnd(); }

 private:
  SaseSystem* system_;
};

void SaseSystem::ObsIngestBegin() {
  if (!tracer_.enabled()) {
    ingest_trace_ = 0;
    return;
  }
  ingest_trace_ = tracer_.MaybeSample();
  // Downstream layers (the runtime's Dispatch in particular) read the
  // in-flight event's trace id from this slot: the whole bus fan-out is
  // synchronous on this thread.
  tracer_.SetCurrent(ingest_trace_);
  if (ingest_trace_ != 0) ingest_start_ns_ = obs::MonotonicNs();
}

void SaseSystem::ObsIngestEnd() {
  if (ingest_trace_ != 0) {
    tracer_.AddSpan(ingest_trace_, "ingest", "ingest", ingest_start_ns_,
                    obs::MonotonicNs(), 0);
    ingest_trace_ = 0;
  }
  tracer_.SetCurrent(0);
}

SaseSystem::SaseSystem(StoreLayout layout, SystemConfig config)
    : SaseSystem(std::move(layout), std::move(config), nullptr) {}

SaseSystem::~SaseSystem() {
  // The endpoint's accept thread reads metrics_ and runtime_; stop it
  // before any member is torn down.
  if (http_endpoint_ != nullptr) http_endpoint_->Stop();
  if (!config_.obs.trace_path.empty() && tracer_.span_count() > 0) {
    Status dumped = tracer_.DumpJson(config_.obs.trace_path);
    if (!dumped.ok()) {
      SASE_LOG_WARN << "trace dump failed: " << dumped.ToString();
    }
  }
}

SaseSystem::SaseSystem(StoreLayout layout, SystemConfig config,
                       const RecoverySpec* recovery)
    : catalog_(Catalog::RetailDemo()), config_(std::move(config)),
      layout_(layout), sql_(&database_), recovering_(recovery != nullptr) {
  // Recovery restores the Event Database dump before any component runs its
  // get-or-create table setup, so the components adopt the restored tables
  // instead of racing them.
  if (recovery != nullptr && recovery->snapshot != nullptr) {
    Status restored = db::LoadFileInto(
        checkpoint::DbDumpPath(recovery->dir, recovery->epoch), &database_);
    if (!restored.ok()) {
      SASE_LOG_WARN << "checkpoint database restore failed: "
                    << restored.ToString();
    }
  }

  ons_ = std::make_unique<db::Ons>(&database_);
  archiver_ = std::make_unique<db::Archiver>(&database_);
  reports_ = ReportBoard(config_.echo_reports);
  cleaning_output_ = &reports_.Channel(ReportBoard::kCleaningOutput);
  stream_output_ = &reports_.Channel(ReportBoard::kStreamOutput);
  message_results_ = &reports_.Channel(ReportBoard::kMessageResults);

  // Seed the area directory from the layout so _retrieveLocation returns
  // meaningful descriptions (upsert: a restored directory stays intact).
  for (const Area& area : layout_.areas()) {
    (void)archiver_->DescribeArea(area.id, area.name);
  }

  engine_ = std::make_unique<QueryEngine>(&catalog_, config_.time_config);
  engine_->set_scan_sharing(config_.scan_sharing);
  (void)archiver_->RegisterFunctions(engine_->functions());

  // Observability: the registry spans every layer; the trace collector is
  // always constructed (so `.trace on <N>` can enable sampling later) and
  // samples at this system's ingest taps — the runtime reads the sampled id
  // instead of drawing its own.
  if (config_.obs.metrics_enabled) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    engine_->AttachMetrics(metrics_.get(), "serial");
    engine_->ConfigureSlowQueryLog(config_.obs.slow_query_threshold_ns,
                                   config_.obs.slow_query_log_size);
  }
  tracer_.SetSampling(config_.obs.trace_sample_every);
  tracer_.SetExternalSampler(true);
  obs_head_ = std::make_unique<ObsHeadTap>(this);
  obs_tail_ = std::make_unique<ObsTailTap>(this);
  // The sampling tap precedes even the journal write-ahead tap.
  event_bus_.Subscribe(obs_head_.get());

  bool checkpointing = !config_.checkpoint.dir.empty();
  if (checkpointing) {
    journal_head_ = std::make_unique<JournalHeadTap>(this);
    journal_tail_ = std::make_unique<JournalTailTap>(this);
    checkpoint_policy_ =
        std::make_unique<checkpoint::CheckpointPolicy>(config_.checkpoint);
    // The write-ahead tap precedes every processor on the bus.
    event_bus_.Subscribe(journal_head_.get());
  }

  // With checkpointing enabled a runtime exists even at one shard, so pure
  // stream queries are hosted, checkpointed and recovered the same way at
  // every shard count (the serial engine keeps only the queries that call
  // database functions, see RequiresSerialEngine).
  if (config_.shard_count >= 2 || checkpointing) {
    RuntimeConfig runtime_config;
    runtime_config.shard_count = std::max(1, config_.shard_count);
    runtime_config.partition_key = config_.partition_key;
    runtime_config.time_config = config_.time_config;
    runtime_config.merge_interval = config_.runtime_merge_interval;
    runtime_config.scan_sharing = config_.scan_sharing;
    runtime_config.metrics = metrics_.get();
    runtime_config.tracer = &tracer_;
    runtime_config.slow_query_threshold_ns = config_.obs.slow_query_threshold_ns;
    runtime_config.slow_query_log_size = config_.obs.slow_query_log_size;
    runtime_config.hotkey_sketch_size = config_.obs.hotkey_sketch_size;
    runtime_config.hotkey_mitigation = config_.hotkey_mitigation;
    runtime_config.hotkey_split_threshold = config_.hotkey_split_threshold;
    runtime_config.hotkey_min_events = config_.hotkey_min_events;
    runtime_ = std::make_unique<ShardedRuntime>(&catalog_, runtime_config);
    event_bus_.Subscribe(runtime_.get());
  }

  // UI channel: cleaned events ("Cleaning and Association Layer Output").
  event_logger_ = std::make_unique<CallbackSink>(
      [this](const EventPtr& event) { LogEvent(event); });

  event_bus_.Subscribe(engine_.get());
  event_bus_.Subscribe(event_logger_.get());
  if (config_.archive_raw_events) {
    event_archiver_ = std::make_unique<RawEventArchiver>(&database_, &catalog_);
    event_bus_.Subscribe(event_archiver_.get());
  }
  if (checkpointing) {
    // The mark/policy tap runs after every processor finished the event.
    event_bus_.Subscribe(journal_tail_.get());
  }
  // The span-closing tap is last of all.
  event_bus_.Subscribe(obs_tail_.get());

  // Cleaning pipeline configured from the layout.
  CleaningPipeline::Config cleaning_config;
  for (const ReaderSpec& reader : layout_.readers()) {
    cleaning_config.anomaly.valid_readers.insert(reader.id);
  }
  cleaning_config.smoothing.window =
      config_.smoothing_window_ticks * config_.raw_units_per_tick;
  cleaning_config.smoothing.sampling_interval = config_.raw_units_per_tick;
  cleaning_config.time.raw_units_per_tick = config_.raw_units_per_tick;
  cleaning_config.dedup.reader_to_area = layout_.ReaderToArea();
  cleaning_config.generation.area_to_event_type = layout_.AreaToEventType();
  cleaning_ = std::make_unique<CleaningPipeline>(
      std::move(cleaning_config), &catalog_, ons_->Resolver(), &event_bus_);

  simulator_ = std::make_unique<RetailSimulator>(
      std::move(layout), config_.noise, config_.seed, config_.raw_units_per_tick);
  simulator_->set_sink(cleaning_.get());

  if (checkpointing && recovery == nullptr) {
    auto existing = checkpoint::ReadManifest(config_.checkpoint.dir);
    if (existing.ok()) {
      SASE_LOG_WARN << "checkpoint directory " << config_.checkpoint.dir
                    << " already holds snapshot " << existing.value()
                    << "; a fresh system journals a new epoch 0 over it — "
                    << "use SaseSystem::Recover to resume instead";
    }
    Status opened = OpenJournal(0, 0);
    if (!opened.ok()) {
      SASE_LOG_WARN << "cannot open event journal: " << opened.ToString();
    }
  }

  // Embedded scrape endpoint: /metrics renders the registry live (the
  // mirrored counters show the last ScrapeMetrics), /healthz probes worker
  // liveness cross-thread, /statusz serves the page cached at the last
  // scrape. A bind failure degrades to "no endpoint" — the system itself
  // must come up regardless.
  if (metrics_ != nullptr && config_.obs.http_port != 0) {
    http_endpoint_ = std::make_unique<obs::HttpEndpoint>();
    http_endpoint_->Handle("/metrics", [this] {
      return obs::HttpEndpoint::Response{
          200, "text/plain; version=0.0.4; charset=utf-8",
          metrics_->RenderPrometheus()};
    });
    http_endpoint_->Handle("/healthz", [this] {
      std::string why;
      if (runtime_ != nullptr && !runtime_->Healthy(kHealthzStallNs, &why)) {
        return obs::HttpEndpoint::Response{503, "text/plain; charset=utf-8",
                                           "unhealthy: " + why + "\n"};
      }
      return obs::HttpEndpoint::Response{200, "text/plain; charset=utf-8",
                                         "ok\n"};
    });
    http_endpoint_->Handle("/statusz", [this] {
      std::lock_guard<std::mutex> lock(statusz_mutex_);
      return obs::HttpEndpoint::Response{
          200, "text/plain; charset=utf-8",
          statusz_.empty() ? std::string("no status captured yet: "
                                         "ScrapeMetrics() (console `.statusz`) "
                                         "refreshes this page\n")
                           : statusz_};
    });
    Status started = http_endpoint_->Start(
        config_.obs.http_port < 0 ? 0 : config_.obs.http_port);
    if (!started.ok()) {
      SASE_LOG_WARN << "observability http endpoint disabled: "
                    << started.ToString();
      http_endpoint_.reset();
    }
  }
}

void SaseSystem::LogEvent(const EventPtr& event) {
  cleaning_output_->AppendEvent(event, catalog_);
}

void SaseSystem::AddProduct(const TagInfo& tag) {
  ProductInfo info;
  info.product_name = tag.product_name;
  info.expiration_date = tag.expiration_date;
  info.saleable = tag.saleable;
  (void)ons_->RegisterProduct(tag.epc, info);
  simulator_->AddItem(tag);
}

OutputCallback SaseSystem::MakeDeliver(const std::string& name,
                                       OutputCallback callback,
                                       bool runtime_hosted) {
  return [this, prefix = std::make_shared<const std::string>("[" + name + "] "),
          callback = std::move(callback),
          runtime_hosted](const OutputRecord& record) {
    // Per-host delivery watermark; during recovery replay the first
    // `suppress` regenerated records per class are exactly the ones the
    // crashed process already delivered (under AckMode::kConsumer: durably
    // acked), so the gate swallows them and resumes at the record after.
    uint64_t& delivered = runtime_hosted ? delivered_runtime_ : delivered_serial_;
    uint64_t& suppress = runtime_hosted ? suppress_runtime_ : suppress_serial_;
    ++delivered;
    if (suppress > 0) {
      --suppress;
      ++suppressed_duplicates_;
      return;
    }
    // One copy serves both output channels and the callback. Runtime-merged
    // records arrive pre-stamped by the OutputMerger (whose merge ordinal IS
    // the runtime-class cursor); serial-engine deliveries are stamped here
    // from the class counter.
    auto out = std::make_shared<OutputRecord>(record);
    if (out->cursor_position == 0) {
      out->cursor_runtime_hosted = runtime_hosted;
      out->cursor_position = delivered;
    }
    if (config_.checkpoint.ack_mode == checkpoint::AckMode::kAuto) {
      // Delivery is acknowledgment; the journal's output marks double as
      // the durable cursor, so no separate ack record is written.
      uint64_t& acked = runtime_hosted ? acked_runtime_ : acked_serial_;
      acked = delivered;
    }
    stream_output_->AppendRecord(out);
    message_results_->AppendRecord(out, prefix);
    if (callback) callback(*out);
  };
}

Result<QueryId> SaseSystem::RegisterMonitoringQuery(const std::string& name,
                                                    const std::string& text,
                                                    OutputCallback callback) {
  // Hybrid stream+database queries stay on the serial engine; pure stream
  // queries — including named FROM-stream readers — scale out when the
  // runtime is enabled. Runtime callbacks fire on the simulation thread
  // during merges, so the report board needs no locking either way.
  bool runtime_hosted = runtime_ != nullptr && !RequiresSerialEngine(text);
  OutputCallback deliver = MakeDeliver(name, std::move(callback), runtime_hosted);
  Result<QueryId> id = runtime_hosted
                           ? runtime_->Register(text, std::move(deliver))
                           : engine_->Register(text, std::move(deliver));
  if (id.ok()) {
    reports_.Channel(ReportBoard::kPresentQueries).Append(name + ":\n" + text);
    registry_.push_back(QueryInfo{id.value(), runtime_hosted, false, name, text});
    if (JournalActive()) {
      Status logged = journal_->AppendRegister(false, name, text);
      if (!logged.ok() && !journal_warned_) {
        SASE_LOG_WARN << "journal append failed: " << logged.ToString();
        journal_warned_ = true;
      }
    }
  }
  return id;
}

Result<QueryId> SaseSystem::RegisterArchivingRule(const std::string& name,
                                                  const std::string& text) {
  auto id = engine_->Register(text, [](const OutputRecord&) {
    // Archiving rules act through their _update* side effects; the record
    // itself is not user-facing.
  });
  if (id.ok()) {
    reports_.Channel(ReportBoard::kPresentQueries)
        .Append(name + " (archiving):\n" + text);
    registry_.push_back(QueryInfo{id.value(), false, true, name, text});
    if (JournalActive()) {
      Status logged = journal_->AppendRegister(true, name, text);
      if (!logged.ok() && !journal_warned_) {
        SASE_LOG_WARN << "journal append failed: " << logged.ToString();
        journal_warned_ = true;
      }
    }
  }
  return id;
}

Result<db::ResultSet> SaseSystem::ExecuteSql(const std::string& text) {
  auto result = sql_.Execute(text);
  auto& channel = reports_.Channel(ReportBoard::kDatabaseReport);
  channel.Append("> " + text);
  channel.Append(result.ok() ? result.value().ToString()
                             : result.status().ToString());
  return result;
}

void SaseSystem::PublishStreamEvent(const std::string& stream,
                                    const EventPtr& event) {
  // Named-stream events bypass the bus, so the obs/journal tap sequence is
  // reproduced inline in the same order.
  ObsIngestBegin();
  JournalEvent(stream, event);
  if (runtime_ != nullptr) runtime_->OnStreamEvent(stream, event);
  engine_->OnStreamEvent(stream, event);
  AfterEventProcessed();
  ObsIngestEnd();
}

void SaseSystem::RunUntil(int64_t until_tick) {
  simulator_->RunUntil(until_tick);
}

void SaseSystem::Flush() {
  cleaning_->OnFlush();
  // CleaningPipeline::OnFlush flushes its StreamSource, which calls
  // EventSink::OnFlush on the bus; the bus fans that out to the engine (and
  // to the journal taps when checkpointing).
  //
  // End-of-stream is an ack commit point: a sink that acked everything it
  // saw must not lose those acks to the group-commit batching window.
  Status committed = CommitAcks();
  if (!committed.ok() && !journal_warned_) {
    SASE_LOG_WARN << "journal append failed: " << committed.ToString();
    journal_warned_ = true;
  }
}

Status SaseSystem::AckOutput(const OutputCursor& cursor) {
  if (cursor.position == 0) {
    return Status::InvalidArgument(
        "cannot ack cursor position 0: the record carries no delivery stamp");
  }
  uint64_t delivered =
      cursor.runtime_hosted ? delivered_runtime_ : delivered_serial_;
  uint64_t& acked = cursor.runtime_hosted ? acked_runtime_ : acked_serial_;
  if (cursor.position > delivered) {
    return Status::InvalidArgument(
        "cannot ack position " + std::to_string(cursor.position) + ": only " +
        std::to_string(delivered) + " records delivered in this class");
  }
  if (cursor.position <= acked) return Status::Ok();  // cumulative: covered
  acked = cursor.position;
  if (config_.checkpoint.ack_mode == checkpoint::AckMode::kConsumer &&
      JournalActive()) {
    Status logged = journal_->AppendAckCursor(acked_runtime_, acked_serial_);
    if (!logged.ok() && !journal_warned_) {
      SASE_LOG_WARN << "journal append failed: " << logged.ToString();
      journal_warned_ = true;
    }
  }
  return Status::Ok();
}

Status SaseSystem::CommitAcks() {
  if (journal_ == nullptr) return Status::Ok();
  return journal_->CommitAcks();
}

// --- durable checkpoint & crash recovery -----------------------------------

void SaseSystem::JournalEvent(const std::string& stream,
                              const EventPtr& event) {
  if (!JournalActive()) return;
  Status logged = journal_->AppendEvent(stream, *event);
  if (!logged.ok() && !journal_warned_) {
    SASE_LOG_WARN << "journal append failed: " << logged.ToString();
    journal_warned_ = true;
  }
}

void SaseSystem::JournalFlush() {
  if (!JournalActive()) return;
  Status logged = journal_->AppendFlush();
  if (!logged.ok() && !journal_warned_) {
    SASE_LOG_WARN << "journal append failed: " << logged.ToString();
    journal_warned_ = true;
  }
}

void SaseSystem::AfterEventProcessed() {
  if (!JournalActive()) return;
  ++events_since_checkpoint_;
  if (delivered_runtime_ != last_mark_runtime_ ||
      delivered_serial_ != last_mark_serial_) {
    Status logged =
        journal_->AppendOutputMark(delivered_runtime_, delivered_serial_);
    if (logged.ok()) {
      last_mark_runtime_ = delivered_runtime_;
      last_mark_serial_ = delivered_serial_;
    } else if (!journal_warned_) {
      SASE_LOG_WARN << "journal append failed: " << logged.ToString();
      journal_warned_ = true;
    }
  }
  checkpoint::CheckpointSample sample;
  sample.events_since_checkpoint = events_since_checkpoint_;
  sample.journal_bytes_since_checkpoint =
      journal_->bytes_written() - journal_bytes_at_checkpoint_;
  if (checkpoint_policy_->Evaluate(sample) ==
      checkpoint::CheckpointDecision::kCheckpoint) {
    Status taken = Checkpoint();
    if (!taken.ok()) {
      SASE_LOG_WARN << "automatic checkpoint failed: " << taken.ToString();
      // Re-arm the thresholds instead of retrying on every event.
      events_since_checkpoint_ = 0;
      journal_bytes_at_checkpoint_ = journal_->bytes_written();
    }
    checkpoint_policy_->NoteCheckpoint();
  }
}

Status SaseSystem::OpenJournal(uint64_t epoch, uint64_t segment) {
  journal_.reset();
  auto journal = checkpoint::EventJournal::Open(
      config_.checkpoint.dir, epoch, segment,
      config_.checkpoint.journal_rotate_bytes, config_.checkpoint.journal_fsync);
  if (!journal.ok()) return journal.status();
  journal_ = std::move(journal).value();
  journal_->set_ack_commit_interval(config_.checkpoint.ack_commit_interval);
  journal_->set_group_commit(config_.checkpoint.group_commit_interval,
                             config_.checkpoint.group_commit_max_delay_us);
  if (metrics_ != nullptr) {
    journal_->set_latency_metrics(
        metrics_->GetHistogram("sase_journal_append_latency_ns"),
        metrics_->GetHistogram("sase_journal_fsync_latency_ns"));
    journal_->set_group_occupancy_metric(
        metrics_->GetHistogram("sase_journal_group_commit_records"));
  }
  journal_bytes_at_checkpoint_ = journal_->bytes_written();
  last_mark_runtime_ = delivered_runtime_;
  last_mark_serial_ = delivered_serial_;
  return Status::Ok();
}

Status SaseSystem::Checkpoint(const std::string& dir_arg) {
  const std::string& dir =
      dir_arg.empty() ? config_.checkpoint.dir : dir_arg;
  if (dir.empty()) {
    return Status::InvalidArgument(
        "no checkpoint directory configured or given");
  }
  if (in_checkpoint_) {
    return Status::FailedPrecondition("a checkpoint is already in progress");
  }
  in_checkpoint_ = true;
  uint64_t written_snapshot = 0;  // snapshot id the lambda ends up writing

  auto build_and_write = [&]() -> Status {
    checkpoint::SystemSnapshot snap;
    if (runtime_ != nullptr) {
      // Quiesces; may refuse.
      SASE_RETURN_IF_ERROR(runtime_->ExportCheckpoint(&snap));
      for (checkpoint::SnapshotQuery& entry : snap.queries) {
        entry.name = "query-" + std::to_string(entry.id);
        for (const QueryInfo& info : registry_) {
          if (info.runtime_hosted && info.id == entry.id) {
            entry.name = info.name;
            entry.archiving = info.archiving;
            break;
          }
        }
      }
    } else {
      snap.shard_count = std::max(1, config_.shard_count);
      snap.partition_key = config_.partition_key;
    }

    for (const auto& query : engine_->RegisteredQueries()) {
      checkpoint::SnapshotQuery entry;
      entry.id = query.id;
      entry.runtime_hosted = false;
      entry.options = query.options;
      entry.text = query.text;
      entry.name = "query-" + std::to_string(query.id);
      for (const QueryInfo& info : registry_) {
        if (!info.runtime_hosted && info.id == query.id) {
          entry.name = info.name;
          entry.archiving = info.archiving;
          break;
        }
      }
      // Recovery re-registers from the query text before restoring state;
      // a query registered from a pre-parsed AST has none, so the snapshot
      // cannot cover it. This is the one remaining per-query refusal; it
      // names the offender so the console message is actionable.
      if (query.text.empty()) {
        return Status::FailedPrecondition(
            "cannot checkpoint: query '" + entry.name + "' (#" +
            std::to_string(query.id) +
            ") on the serial engine was registered from a pre-parsed AST "
            "and has no registration text to re-register on recovery");
      }
      // Direct operator-state serialization: serial-engine queries —
      // archiving rules and hybrid database queries included — checkpoint
      // their stacks, buffers and aggregate accumulators like any
      // runtime-hosted query.
      auto payload = engine_->SerializeState(query.id);
      if (!payload.ok()) return payload.status();
      snap.engine_state.push_back(checkpoint::EngineStateSection{
          "plan", "serial", query.id, 1, std::move(payload).value()});
      snap.queries.push_back(std::move(entry));
    }
    snap.engine_state.push_back(checkpoint::EngineStateSection{
        "engine", "serial", 0, 1, engine_->SerializeEngineState()});

    for (size_t i = 0; i < catalog_.type_count(); ++i) {
      snap.catalog_types.push_back(
          catalog_.schema(static_cast<EventTypeId>(i)).name());
    }
    // The runtime class equals the runtime's merge ordinal, which the
    // export above wrote.
    snap.delivered_serial = delivered_serial_;
    // The snapshot's ACKED line supersedes every journaled cursor record of
    // the epoch it closes — a pending (uncommitted) ack batch is covered
    // here and simply dropped with the rolled journal.
    snap.acked_runtime = acked_runtime_;
    snap.acked_serial = acked_serial_;

    bool own_dir = journal_ != nullptr && dir == config_.checkpoint.dir;
    if (own_dir) {
      snap.snapshot_id = epoch_ + 1;
    } else {
      auto existing = checkpoint::ReadManifest(dir);
      snap.snapshot_id = existing.ok() ? existing.value() + 1 : 1;
    }
    SASE_RETURN_IF_ERROR(checkpoint::WriteSnapshot(dir, snap, database_));
    ++checkpoints_taken_;
    written_snapshot = snap.snapshot_id;

    if (own_dir) {
      // The journal epoch rolls with the snapshot: everything before the
      // checkpoint is now covered by it, so the previous epoch's segments
      // and snapshot are garbage.
      epoch_ = snap.snapshot_id;
      SASE_RETURN_IF_ERROR(OpenJournal(epoch_, 0));
      checkpoint::RemoveStaleJournals(dir, epoch_);
      checkpoint::RemoveStaleSnapshots(dir, epoch_);
      events_since_checkpoint_ = 0;
    }
    return Status::Ok();
  };

  uint64_t obs_start = metrics_ != nullptr ? obs::MonotonicNs() : 0;
  Status status = build_and_write();
  in_checkpoint_ = false;
  if (status.ok() && metrics_ != nullptr) {
    metrics_->GetHistogram("sase_checkpoint_snapshot_duration_ns")
        ->Record(static_cast<int64_t>(obs::MonotonicNs() - obs_start));
    // Snapshot footprint: every file of the snapshot directory just written
    // (state + engine state + database dump).
    std::error_code ec;
    std::filesystem::path snap_dir =
        std::filesystem::path(checkpoint::DbDumpPath(dir, written_snapshot))
            .parent_path();
    int64_t bytes = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(snap_dir, ec)) {
      if (entry.is_regular_file(ec)) {
        bytes += static_cast<int64_t>(entry.file_size(ec));
      }
    }
    metrics_->GetGauge("sase_checkpoint_snapshot_bytes")->Set(bytes);
  }
  return status;
}

Result<std::unique_ptr<SaseSystem>> SaseSystem::Recover(
    const std::string& dir, StoreLayout layout, SystemConfig config,
    CallbackFactory callbacks) {
  RecoverySpec spec;
  spec.dir = dir;
  checkpoint::SystemSnapshot snapshot;
  auto manifest = checkpoint::ReadManifest(dir);
  if (manifest.ok()) {
    auto read = checkpoint::ReadSnapshot(dir, manifest.value(), nullptr);
    if (!read.ok()) return read.status();
    snapshot = std::move(read).value();
    spec.epoch = manifest.value();
    spec.snapshot = &snapshot;
    config.partition_key = snapshot.partition_key;
  } else if (manifest.status().code() != StatusCode::kNotFound) {
    return manifest.status();
  }
  // A recovered system keeps journaling (and checkpointing) into `dir`.
  config.checkpoint.dir = dir;

  uint64_t obs_start = obs::MonotonicNs();
  std::unique_ptr<SaseSystem> system(
      new SaseSystem(std::move(layout), std::move(config), &spec));
  SASE_RETURN_IF_ERROR(system->FinishRecovery(spec, callbacks));
  if (system->metrics_ != nullptr) {
    // Wall time from construction (includes the database restore) through
    // snapshot state install and journal replay.
    system->metrics_->GetHistogram("sase_recovery_duration_ns")
        ->Record(static_cast<int64_t>(obs::MonotonicNs() - obs_start));
  }
  return system;
}

Status SaseSystem::FinishRecovery(const RecoverySpec& spec,
                                  const CallbackFactory& callbacks) {
  recovered_ = true;
  epoch_ = spec.epoch;
  const checkpoint::SystemSnapshot* snap = spec.snapshot;

  if (snap != nullptr) {
    // Engine-state payloads and journal records reference event types by
    // id; a catalog drift would silently misread them, so refuse instead.
    for (size_t i = 0; i < snap->catalog_types.size(); ++i) {
      auto type = catalog_.FindType(snap->catalog_types[i]);
      if (!type.ok() || type.value() != static_cast<EventTypeId>(i)) {
        return Status::InvalidArgument(
            "catalog mismatch: checkpoint type '" + snap->catalog_types[i] +
            "' does not resolve to id " + std::to_string(i));
      }
    }
    delivered_runtime_ = snap->delivered_runtime;
    delivered_serial_ = snap->delivered_serial;

    for (const checkpoint::SnapshotQuery& query : snap->queries) {
      registry_.push_back(QueryInfo{query.id, query.runtime_hosted,
                                    query.archiving, query.name, query.text});
      reports_.Channel(ReportBoard::kPresentQueries)
          .Append(query.name + (query.archiving ? " (archiving):\n" : ":\n") +
                  query.text);
    }

    // Serial-hosted queries: install them all before any journal replay,
    // under their original ids. Their serialized operator state is loaded
    // right below, so registration position does not matter — the restored
    // plan carries exactly the construction history of the crashed one.
    std::vector<QueryId> serial_queries;
    for (const checkpoint::SnapshotQuery& query : snap->queries) {
      if (query.runtime_hosted) continue;
      OutputCallback deliver;
      if (query.archiving) {
        deliver = [](const OutputRecord&) {};
      } else {
        deliver = MakeDeliver(query.name,
                              callbacks ? callbacks(query.name) : nullptr,
                              /*runtime_hosted=*/false);
      }
      auto id = engine_->RegisterAs(query.id, query.text, std::move(deliver),
                                    query.options);
      if (!id.ok()) return id.status();
      serial_queries.push_back(query.id);
    }
    SASE_RETURN_IF_ERROR(checkpoint::LoadEngineSections(
        *snap, "serial", serial_queries, engine_.get()));

    // Runtime-hosted queries + engine state, restored at the snapshot's
    // shard count and resized to this system's. Recover always configures
    // a checkpoint directory, so a runtime exists.
    auto resolver = [this, snap, &callbacks](QueryId id) -> OutputCallback {
      for (const checkpoint::SnapshotQuery& query : snap->queries) {
        if (query.runtime_hosted && query.id == id) {
          return MakeDeliver(query.name,
                             callbacks ? callbacks(query.name) : nullptr,
                             /*runtime_hosted=*/true);
        }
      }
      return MakeDeliver("query-" + std::to_string(id), nullptr, true);
    };
    SASE_RETURN_IF_ERROR(runtime_->RestoreCheckpoint(*snap, resolver));
  }

  // Journal suffix: scan first (validates CRCs, finds the delivery marks),
  // then replay the valid prefix through the regular publication paths with
  // the taps dormant.
  auto scan = checkpoint::ReadJournal(spec.dir, epoch_);
  if (!scan.ok()) return scan.status();
  if (snap == nullptr && scan.value().segments_read == 0) {
    return Status::NotFound("no checkpoint snapshot or event journal in " +
                            spec.dir);
  }
  recovered_records_ = scan.value().records.size();
  recovered_truncated_ = scan.value().truncated;
  if (scan.value().truncated) {
    SASE_LOG_WARN << "event journal ends at a torn/corrupt record ("
                  << scan.value().truncation_reason
                  << "); recovering the valid prefix of "
                  << scan.value().records.size() << " records";
  }
  uint64_t mark_runtime = delivered_runtime_;
  uint64_t mark_serial = delivered_serial_;
  uint64_t acked_runtime = snap != nullptr ? snap->acked_runtime : 0;
  uint64_t acked_serial = snap != nullptr ? snap->acked_serial : 0;
  for (const checkpoint::JournalRecord& record : scan.value().records) {
    if (record.kind == checkpoint::JournalRecord::Kind::kOutputMark) {
      mark_runtime = record.delivered_runtime;
      mark_serial = record.delivered_serial;
    } else if (record.kind == checkpoint::JournalRecord::Kind::kAckCursor) {
      acked_runtime = std::max(acked_runtime, record.acked_runtime);
      acked_serial = std::max(acked_serial, record.acked_serial);
    }
  }
  uint64_t gate_runtime;
  uint64_t gate_serial;
  if (config_.checkpoint.ack_mode == checkpoint::AckMode::kConsumer) {
    // The durable acked cursor is authoritative: everything delivered past
    // it re-emits (with its original cursor stamp) for the consumer to
    // re-ack or dedup. A journal-only epoch with no cursor records means
    // nothing was durably acked — replay re-delivers everything.
    gate_runtime = acked_runtime;
    gate_serial = acked_serial;
  } else {
    // Auto-ack: delivery is acknowledgment — the marks are the cursor. Max
    // with any consumer-era acks so a mode switch across a crash never
    // regresses the gate below what was durably acked.
    gate_runtime = std::max(mark_runtime, acked_runtime);
    gate_serial = std::max(mark_serial, acked_serial);
  }
  acked_runtime_ = gate_runtime;
  acked_serial_ = gate_serial;
  suppress_runtime_ =
      gate_runtime > delivered_runtime_ ? gate_runtime - delivered_runtime_ : 0;
  suppress_serial_ =
      gate_serial > delivered_serial_ ? gate_serial - delivered_serial_ : 0;

  uint64_t replayed_events = 0;
  for (const checkpoint::JournalRecord& record : scan.value().records) {
    switch (record.kind) {
      case checkpoint::JournalRecord::Kind::kEvent:
      case checkpoint::JournalRecord::Kind::kStreamEvent: {
        if (static_cast<size_t>(record.type) >= catalog_.type_count()) {
          return Status::InvalidArgument(
              "journal event references unknown type id " +
              std::to_string(record.type));
        }
        auto event = std::make_shared<Event>(record.type, record.timestamp,
                                             record.seq, record.values);
        if (record.kind == checkpoint::JournalRecord::Kind::kEvent) {
          event_bus_.OnEvent(event);
        } else {
          PublishStreamEvent(record.stream, event);
        }
        ++replayed_events;
        break;
      }
      case checkpoint::JournalRecord::Kind::kFlush:
        event_bus_.OnFlush();
        break;
      case checkpoint::JournalRecord::Kind::kRegister: {
        if (record.archiving) {
          auto id = RegisterArchivingRule(record.name, record.text);
          if (!id.ok()) return id.status();
        } else {
          auto id = RegisterMonitoringQuery(
              record.name, record.text,
              callbacks ? callbacks(record.name) : nullptr);
          if (!id.ok()) return id.status();
        }
        break;
      }
      case checkpoint::JournalRecord::Kind::kOutputMark:
      case checkpoint::JournalRecord::Kind::kAckCursor:
        break;  // consumed by the gate computation above
    }
  }
  // Quiesce: surface every record the replay made merge-safe, consuming
  // the suppression quota in full. Every record the crashed process
  // delivered was triggered at or below the journal's dispatch point, so
  // after this drain a non-zero quota means the journal tail (and the
  // records it covered) was genuinely lost.
  if (runtime_ != nullptr) runtime_->WaitIdle();
  if (suppress_runtime_ > 0 || suppress_serial_ > 0) {
    SASE_LOG_WARN << "recovery replay regenerated fewer records than the "
                  << "journal's delivery marks claim (" << suppress_runtime_
                  << "+" << suppress_serial_
                  << " unmatched, journal truncated=" << recovered_truncated_
                  << "); the remainder stays suppressed until matching "
                  << "records regenerate";
  }

  recovering_ = false;
  // A torn tail is physically cut out before journaling resumes: left in
  // place it would stop every future scan at the old crash point, hiding
  // the records journaled after this recovery from the next one.
  SASE_RETURN_IF_ERROR(OpenJournal(
      epoch_, checkpoint::RepairJournal(spec.dir, epoch_, scan.value())));
  events_since_checkpoint_ = replayed_events;
  return Status::Ok();
}

void SaseSystem::ScrapeMetrics() {
  if (metrics_ == nullptr) return;
  // The runtime scrape quiesces it (WaitIdle) and scrapes its hosted
  // engines; the serial engine scrape then reads settled counters.
  if (runtime_ != nullptr) runtime_->ScrapeMetrics();
  engine_->ScrapeMetrics();
  metrics_->GetCounter("sase_checkpoints_total")->Set(checkpoints_taken_);
  metrics_->GetCounter("sase_delivered_records_total{host=\"runtime\"}")
      ->Set(delivered_runtime_);
  metrics_->GetCounter("sase_delivered_records_total{host=\"serial\"}")
      ->Set(delivered_serial_);
  metrics_->GetGauge("sase_ack_lag_records{host=\"runtime\"}")
      ->Set(static_cast<int64_t>(delivered_runtime_ - acked_runtime_));
  metrics_->GetGauge("sase_ack_lag_records{host=\"serial\"}")
      ->Set(static_cast<int64_t>(delivered_serial_ - acked_serial_));
  metrics_->GetCounter("sase_recovery_suppressed_duplicates_total")
      ->Set(suppressed_duplicates_);
  for (const std::string& name : reports_.ChannelNames()) {
    metrics_
        ->GetCounter("sase_report_lines_evicted_total{channel=\"" +
                     ChannelLabel(name) + "\"}")
        ->Set(reports_.Channel(name).evicted());
  }
  if (journal_ != nullptr) {
    metrics_->GetCounter("sase_journal_records_total")
        ->Set(journal_->records_written());
    metrics_->GetCounter("sase_journal_bytes_total")
        ->Set(journal_->bytes_written());
    metrics_->GetCounter("sase_journal_rotations_total")
        ->Set(journal_->rotations());
    metrics_->GetCounter("sase_journal_group_commits_total")
        ->Set(journal_->group_commits());
    metrics_->GetGauge("sase_journal_unsynced_records")
        ->Set(static_cast<int64_t>(journal_->unsynced_records()));
  }
  if (recovered_) {
    metrics_->GetCounter("sase_recovery_replayed_records_total")
        ->Set(recovered_records_);
  }
  if (http_endpoint_ != nullptr) {
    // Refresh the /statusz cache while everything is quiesced; the accept
    // thread serves the copy, never this dispatcher-only path.
    std::string status = StatusReport();
    std::lock_guard<std::mutex> lock(statusz_mutex_);
    statusz_ = std::move(status);
  }
}

std::string SaseSystem::StatusReport() {
  std::ostringstream out;
  out << "queries: " << registry_.size() << " registered\n";
  for (const QueryInfo& info : registry_) {
    out << obs::ReportLine("  #" + std::to_string(info.id))
               .Kv("host", info.runtime_hosted ? "runtime" : "serial")
               .Kv("kind", info.archiving ? "archiving" : "monitoring")
               .Kv("name", info.name)
               .Str();
  }
  if (metrics_ != nullptr) {
    // One line per (host, query) operator-latency series; the label part of
    // the metric name already names both.
    constexpr const char kLatency[] = "sase_query_op_latency_ns";
    bool any = false;
    for (const std::string& name : metrics_->HistogramNames()) {
      if (name.rfind(kLatency, 0) != 0 || name.size() <= sizeof(kLatency)) {
        continue;
      }
      Histogram hist = metrics_->GetHistogram(name)->Aggregate();
      if (hist.count() == 0) continue;
      if (!any) {
        out << "per-query operator latency (ns):\n";
        any = true;
      }
      out << obs::ReportLine("  " + name.substr(sizeof(kLatency) - 1))
                 .Kv("count", hist.count())
                 .Kv("p50", static_cast<int64_t>(hist.Quantile(0.5)))
                 .Kv("p99", static_cast<int64_t>(hist.Quantile(0.99)))
                 .Kv("max", hist.max())
                 .Str();
    }
  }
  if (runtime_ != nullptr) {
    out << runtime_->StatsReport();
  }
  out << CheckpointReport();
  std::vector<ShardedRuntime::SlowSample> slow = SlowSamples();
  if (!slow.empty()) {
    out << "slow queries (>= " << config_.obs.slow_query_threshold_ns
        << " ns/event, newest first):\n";
    for (const ShardedRuntime::SlowSample& entry : slow) {
      out << obs::ReportLine("  " + entry.host)
                 .Kv("query", entry.sample.query)
                 .Kv("seq", entry.sample.seq)
                 .Kv("ts", entry.sample.timestamp)
                 .Kv("duration_ns", entry.sample.duration_ns)
                 .Str();
    }
  }
  return out.str();
}

std::vector<ShardedRuntime::SlowSample> SaseSystem::SlowSamples() {
  std::vector<ShardedRuntime::SlowSample> slow;
  if (runtime_ != nullptr) slow = runtime_->SlowSamples();
  for (const QueryEngine::SlowQuerySample& sample : engine_->SlowSamples()) {
    slow.push_back(ShardedRuntime::SlowSample{"serial", sample});
  }
  std::sort(slow.begin(), slow.end(),
            [](const ShardedRuntime::SlowSample& a,
               const ShardedRuntime::SlowSample& b) {
              return a.sample.at_ns > b.sample.at_ns;
            });
  return slow;
}

std::string SaseSystem::CheckpointReport() const {
  if (journal_ == nullptr && checkpoints_taken_ == 0 && !recovered_) return "";
  std::string out =
      obs::ReportLine("checkpoint:")
          .Kv("dir", config_.checkpoint.dir.empty() ? "<none>"
                                                    : config_.checkpoint.dir)
          .Kv("epoch", epoch_)
          .Kv("taken", checkpoints_taken_)
          .Kv("delivered", std::to_string(delivered_runtime_) + "+" +
                               std::to_string(delivered_serial_))
          .Str();
  bool consumer_acks =
      config_.checkpoint.ack_mode == checkpoint::AckMode::kConsumer;
  out += obs::ReportLine("acks:")
             .Kv("mode", consumer_acks ? "consumer" : "auto")
             .Kv("acked", std::to_string(acked_runtime_) + "+" +
                              std::to_string(acked_serial_))
             .Kv("lag",
                 std::to_string(delivered_runtime_ - acked_runtime_) + "+" +
                     std::to_string(delivered_serial_ - acked_serial_))
             .Kv("pending", journal_ != nullptr ? journal_->pending_acks() : 0)
             .Kv("commits", journal_ != nullptr ? journal_->ack_commits() : 0)
             .Kv("suppressed", suppressed_duplicates_)
             .Str();
  if (journal_ != nullptr) {
    out += obs::ReportLine("journal:")
               .Kv("segment", journal_->segment())
               .Kv("records", journal_->records_written())
               .Kv("bytes", journal_->bytes_written())
               .Kv("rotations", journal_->rotations())
               .Kv("since_checkpoint", events_since_checkpoint_)
               .Text("events")
               .Str();
  }
  if (checkpoint_policy_ != nullptr) {
    out += checkpoint_policy_->Describe() + "\n";
  }
  if (recovered_) {
    out += obs::ReportLine("recovery:")
               .Kv("replayed", recovered_records_)
               .Text("records")
               .Kv("truncated", recovered_truncated_ ? "yes" : "no")
               .Kv("suppressed_remaining", suppress_runtime_ + suppress_serial_)
               .Str();
  }
  return out;
}

}  // namespace sase
