#include "engine/query_engine.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "obs/report.h"
#include "obs/trace.h"
#include "query/analyzer.h"
#include "util/string_util.h"

namespace sase {

QueryEngine::QueryEngine(const Catalog* catalog, TimeConfig time_config)
    : catalog_(catalog), time_config_(time_config) {
  functions_.RegisterCommon();
}

Result<QueryId> QueryEngine::Register(const std::string& text,
                                      OutputCallback callback,
                                      PlanOptions options) {
  auto parsed = Parser::Parse(text);
  if (!parsed.ok()) return parsed.status();
  return RegisterParsed(next_id_, text, std::move(parsed).value(),
                        std::move(callback), options);
}

Result<QueryId> QueryEngine::Register(ParsedQuery parsed,
                                      OutputCallback callback,
                                      PlanOptions options) {
  return RegisterParsed(next_id_, std::string(), std::move(parsed),
                        std::move(callback), options);
}

Result<QueryId> QueryEngine::RegisterAs(QueryId id, const std::string& text,
                                        OutputCallback callback,
                                        PlanOptions options) {
  if (plans_.count(id) > 0) {
    return Status::AlreadyExists("query id " + std::to_string(id) +
                                 " is already registered");
  }
  auto parsed = Parser::Parse(text);
  if (!parsed.ok()) return parsed.status();
  return RegisterParsed(id, text, std::move(parsed).value(),
                        std::move(callback), options);
}

Result<QueryId> QueryEngine::RegisterParsed(QueryId id, std::string text,
                                            ParsedQuery parsed,
                                            OutputCallback callback,
                                            PlanOptions options) {
  std::string stream = ToLower(parsed.from_stream);
  Analyzer analyzer(catalog_, time_config_);
  auto analyzed_or = analyzer.Analyze(std::move(parsed));
  if (!analyzed_or.ok()) return analyzed_or.status();
  AnalyzedQuery analyzed = std::move(analyzed_or).value();

  std::string group_key;
  if (sharing_enabled_) {
    group_key = SharedScanGroup::GroupKey(analyzed, options, stream);
  }
  const Ticks window_ticks = analyzed.window_ticks;
  auto plan = Planner::Build(std::move(analyzed), options, catalog_,
                             &functions_, std::move(callback),
                             /*shared_scan_mode=*/sharing_enabled_);
  if (sharing_enabled_) {
    auto& group = share_groups_[group_key];
    if (group == nullptr) {
      group = std::make_unique<SharedScanGroup>(plan->query(), options,
                                                &functions_);
    }
    plan->AttachSharedGroup(group.get());
    // A member joining after the group consumed events must not see matches
    // a dedicated (empty) plan could never have produced.
    plan->SetJoinGate(group->fed_any(), group->last_seq());
    group->AddMember(window_ticks);
  }
  auto [it, inserted] = plans_.emplace(
      id, Entry{std::move(plan), std::move(stream), std::move(text), nullptr});
  reader_cache_valid_ = false;
  if (inserted) {
    Entry& entry = it->second;
    entry.id = id;
    entry.group = entry.plan->shared_group();
    entry.group_key = std::move(group_key);
    if (metrics_ != nullptr) ResolveEntryMetrics(id, entry);
  }
  next_id_ = std::max(next_id_, id + 1);
  return id;
}

std::string QueryEngine::QueryMetricName(const std::string& what,
                                         QueryId id) const {
  return "sase_query_" + what + "{host=\"" + host_label_ + "\",query=\"" +
         std::to_string(id) + "\"}";
}

void QueryEngine::ResolveEntryMetrics(QueryId id, Entry& entry) {
  entry.op_latency =
      metrics_ == nullptr
          ? nullptr
          : metrics_->GetHistogram(QueryMetricName("op_latency_ns", id));
}

void QueryEngine::AttachMetrics(obs::MetricsRegistry* metrics,
                                std::string host_label) {
  metrics_ = metrics;
  host_label_ = std::move(host_label);
  for (auto& [id, entry] : plans_) ResolveEntryMetrics(id, entry);
}

void QueryEngine::ScrapeMetrics() const {
  if (metrics_ == nullptr) return;
  metrics_->GetCounter("sase_engine_events_total{host=\"" + host_label_ +
                       "\"}")
      ->Set(events_processed_);
  for (const auto& [id, entry] : plans_) {
    const QueryPlan& plan = *entry.plan;
    const SequenceScan::Stats& scan = plan.sequence_scan().stats();
    metrics_->GetCounter(QueryMetricName("events_seen_total", id))
        ->Set(scan.events_seen);
    metrics_->GetCounter(QueryMetricName("sequences_total", id))
        ->Set(plan.sequence_scan().matches_out());
    metrics_->GetCounter(QueryMetricName("matches_total", id))
        ->Set(plan.negation().matches_out());
    metrics_->GetCounter(QueryMetricName("outputs_total", id))
        ->Set(plan.output_count());
    metrics_->GetCounter(QueryMetricName("errors_total", id))
        ->Set(plan.eval_error_count());
    metrics_->GetGauge(QueryMetricName("scan_instances", id))
        ->Set(static_cast<int64_t>(scan.instances_alive));
    const Negation::Stats& negation = plan.negation().stats();
    metrics_->GetGauge(QueryMetricName("negation_buffer", id))
        ->Set(static_cast<int64_t>(negation.events_buffered -
                                   negation.events_pruned));
    // State-size gauges: walked from the live operator state (the same
    // structures SerializeState snapshots), not maintained counters — so
    // they cannot drift from what a checkpoint would actually write. In
    // shared-scan mode the scan footprint is the group's automaton,
    // mirrored per member (like scan_instances above).
    const SequenceScan::Footprint scan_fp =
        plan.sequence_scan().StateFootprint();
    metrics_->GetGauge(QueryMetricName("scan_state_bytes", id))
        ->Set(static_cast<int64_t>(scan_fp.bytes));
    metrics_->GetGauge(QueryMetricName("scan_partitions", id))
        ->Set(static_cast<int64_t>(scan_fp.partitions));
    const Negation::Footprint neg_fp = plan.negation().StateFootprint();
    metrics_->GetGauge(QueryMetricName("negation_pending", id))
        ->Set(static_cast<int64_t>(neg_fp.pending));
    metrics_->GetGauge(QueryMetricName("negation_state_bytes", id))
        ->Set(static_cast<int64_t>(neg_fp.bytes));
    metrics_->GetGauge(QueryMetricName("transform_accumulators", id))
        ->Set(static_cast<int64_t>(plan.transformation().accumulator_count()));
    metrics_->GetGauge(QueryMetricName("shared_group_members", id))
        ->Set(entry.group == nullptr
                  ? 0
                  : static_cast<int64_t>(entry.group->member_count()));
    metrics_->GetCounter(QueryMetricName("slow_events_total", id))
        ->Set(entry.slow_events);
  }
  std::string host = "{host=\"" + host_label_ + "\"}";
  metrics_->GetCounter("sase_engine_shared_scan_hits_total" + host)
      ->Set(shared_scan_hits());
  metrics_->GetGauge("sase_engine_shared_scan_groups" + host)
      ->Set(static_cast<int64_t>(share_groups_.size()));
  metrics_->GetGauge("sase_engine_shared_scan_arena_bytes" + host)
      ->Set(static_cast<int64_t>(shared_arena_bytes()));
}

void QueryEngine::ConfigureSlowQueryLog(uint64_t threshold_ns,
                                        size_t capacity) {
  slow_threshold_ns_ = capacity == 0 ? 0 : threshold_ns;
  slow_log_capacity_ = slow_threshold_ns_ == 0 ? 0 : capacity;
  slow_log_.clear();
  slow_pos_ = 0;
}

std::vector<QueryEngine::SlowQuerySample> QueryEngine::SlowSamples() const {
  // slow_pos_ is the oldest slot once the ring has wrapped.
  std::vector<SlowQuerySample> samples;
  samples.reserve(slow_log_.size());
  if (slow_log_.size() == slow_log_capacity_) {
    samples.insert(samples.end(), slow_log_.begin() + slow_pos_,
                   slow_log_.end());
    samples.insert(samples.end(), slow_log_.begin(),
                   slow_log_.begin() + slow_pos_);
  } else {
    samples = slow_log_;
  }
  return samples;
}

void QueryEngine::NoteSlow(Entry& entry, const Event& event,
                           uint64_t duration_ns, uint64_t at_ns) {
  ++entry.slow_events;
  SlowQuerySample sample{entry.id, event.seq(), event.timestamp(), duration_ns,
                         at_ns};
  if (slow_log_.size() < slow_log_capacity_) {
    slow_log_.push_back(sample);
  } else {
    slow_log_[slow_pos_] = sample;
    slow_pos_ = (slow_pos_ + 1) % slow_log_capacity_;
  }
}

Status QueryEngine::Unregister(QueryId id) {
  auto it = plans_.find(id);
  if (it == plans_.end()) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  if (it->second.group != nullptr) {
    it->second.group->RemoveMember();
    if (it->second.group->member_count() == 0) {
      share_groups_.erase(it->second.group_key);
    }
  }
  plans_.erase(it);
  reader_cache_valid_ = false;
  return Status::Ok();
}

uint64_t QueryEngine::shared_scan_hits() const {
  uint64_t hits = 0;
  for (const auto& [key, group] : share_groups_) hits += group->shared_hits();
  return hits;
}

uint64_t QueryEngine::shared_arena_bytes() const {
  uint64_t bytes = 0;
  for (const auto& [key, group] : share_groups_) {
    bytes += group->arena_bytes();
  }
  return bytes;
}

const QueryPlan* QueryEngine::plan(QueryId id) const {
  auto it = plans_.find(id);
  return it == plans_.end() ? nullptr : it->second.plan.get();
}

const std::string& QueryEngine::query_text(QueryId id) const {
  static const std::string kEmpty;
  auto it = plans_.find(id);
  return it == plans_.end() ? kEmpty : it->second.text;
}

std::vector<QueryEngine::RegisteredQuery> QueryEngine::RegisteredQueries()
    const {
  std::vector<RegisteredQuery> queries;
  queries.reserve(plans_.size());
  for (const auto& [id, entry] : plans_) {
    queries.push_back(
        RegisteredQuery{id, entry.text, entry.stream, entry.plan->options()});
  }
  return queries;
}

Result<std::string> QueryEngine::SerializeState(QueryId id) const {
  auto it = plans_.find(id);
  if (it == plans_.end()) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  return it->second.plan->SaveState();
}

Status QueryEngine::RestoreState(QueryId id, const std::string& payload) {
  auto it = plans_.find(id);
  if (it == plans_.end()) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  return it->second.plan->RestoreState(payload);
}

std::string QueryEngine::SerializeEngineState() const {
  return "EP " + std::to_string(events_processed_) + "\n";
}

Status QueryEngine::RestoreEngineState(const std::string& payload) {
  std::istringstream in(payload);
  StateReader reader(&in);
  bool saw_counters = false;
  while (reader.Next()) {
    if (reader.tag() != "EP") return reader.Malformed("engine state tag");
    SASE_ASSIGN_OR_RETURN(events_processed_, reader.U64(0));
    saw_counters = true;
  }
  SASE_RETURN_IF_ERROR(reader.status());
  if (!saw_counters) {
    // An EP-less payload would silently leave the counter at zero — the
    // exact reset the restore completeness checks exist to prevent.
    return Status::ParseError("engine-state payload carries no EP line");
  }
  return Status::Ok();
}

void QueryEngine::HandOffState(const std::vector<QueryEngine*>& from,
                               const std::vector<QueryEngine*>& to,
                               const StreamStateRoute& route) {
  if (to.empty()) return;
  std::set<std::string> groups_moved;
  for (const auto& [id, entry] : to.front()->plans_) {
    StateRoute stream_route = [&route, &stream = entry.stream](
                                  const Event& event) {
      return route(stream, event);
    };
    std::vector<QueryPlan*> sources, targets;
    for (QueryEngine* engine : from) {
      auto it = engine->plans_.find(id);
      if (it != engine->plans_.end()) sources.push_back(it->second.plan.get());
    }
    for (QueryEngine* engine : to) {
      targets.push_back(engine->plans_.at(id).plan.get());
    }
    QueryPlan::HandOff(sources, targets, stream_route);
    if (entry.group == nullptr || !groups_moved.insert(entry.group_key).second) {
      continue;
    }
    std::vector<SharedScanGroup*> from_groups, to_groups;
    for (QueryEngine* engine : from) {
      auto it = engine->share_groups_.find(entry.group_key);
      if (it != engine->share_groups_.end()) {
        from_groups.push_back(it->second.get());
      }
    }
    for (QueryEngine* engine : to) {
      to_groups.push_back(engine->share_groups_.at(entry.group_key).get());
    }
    SharedScanGroup::HandOff(from_groups, to_groups, stream_route);
  }
}

void QueryEngine::OnEvent(const EventPtr& event) {
  static const std::string kDefault;
  ++events_processed_;
  ++scan_epoch_;
  const std::vector<Entry*>& readers = Readers(kDefault);
  if (metrics_ == nullptr) {
    for (Entry* entry : readers) DeliverEvent(*entry, event);
    return;
  }
  for (Entry* entry : readers) DeliverTimed(*entry, event);
}

void QueryEngine::OnStreamEvent(const std::string& stream,
                                const EventPtr& event) {
  ++events_processed_;
  ++scan_epoch_;
  std::string key = ToLower(stream);
  const std::vector<Entry*>& readers = Readers(key);
  if (metrics_ == nullptr) {
    for (Entry* entry : readers) DeliverEvent(*entry, event);
    return;
  }
  for (Entry* entry : readers) DeliverTimed(*entry, event);
}

void QueryEngine::OnStreamEvents(const std::string& stream,
                                 const std::vector<EventPtr>& events) {
  events_processed_ += events.size();
  std::string key = ToLower(stream);
  // Resolve the reader set once; per event the serial iteration order
  // (plans in id order) is preserved. The instrumented variant times each
  // plan's operator-chain wall time per event; detached, the loop is the
  // exact pre-instrumentation code path.
  const std::vector<Entry*>& readers = Readers(key);
  if (readers.empty()) return;
  if (metrics_ == nullptr) {
    for (const EventPtr& event : events) {
      ++scan_epoch_;
      for (Entry* entry : readers) DeliverEvent(*entry, event);
    }
    return;
  }
  for (const EventPtr& event : events) {
    ++scan_epoch_;
    for (Entry* entry : readers) DeliverTimed(*entry, event);
  }
}

void QueryEngine::OnEvents(const std::vector<EventPtr>& events) {
  static const std::string kDefault;
  events_processed_ += events.size();
  const std::vector<Entry*>& readers = Readers(kDefault);
  if (readers.empty()) return;
  if (metrics_ == nullptr) {
    for (const EventPtr& event : events) {
      ++scan_epoch_;
      for (Entry* entry : readers) DeliverEvent(*entry, event);
    }
    return;
  }
  for (const EventPtr& event : events) {
    ++scan_epoch_;
    for (Entry* entry : readers) DeliverTimed(*entry, event);
  }
}

void QueryEngine::OnFlush() {
  for (auto& [id, entry] : plans_) {
    entry.plan->OnFlush();
  }
}

void QueryEngine::OnWatermark(Timestamp now, bool prune) {
  for (auto& [id, entry] : plans_) {
    if (entry.stream.empty()) entry.plan->OnWatermark(now, prune);
  }
}

void QueryEngine::OnStreamWatermark(const std::string& stream, Timestamp now,
                                    bool prune) {
  std::string key = ToLower(stream);
  for (auto& [id, entry] : plans_) {
    if (entry.stream == key) entry.plan->OnWatermark(now, prune);
  }
}

QueryEngine::EngineStats QueryEngine::Stats() const {
  EngineStats stats;
  stats.queries = plans_.size();
  stats.events_processed = events_processed_;
  for (const auto& [id, entry] : plans_) {
    stats.matches_scanned += entry.plan->sequence_scan().matches_out();
    stats.outputs += entry.plan->output_count();
    stats.eval_errors += entry.plan->eval_error_count();
  }
  return stats;
}

std::string QueryEngine::StatsReport() const {
  std::string out = obs::ReportLine()
                        .Kv("queries", plans_.size())
                        .Kv("events", events_processed_)
                        .Str();
  for (const auto& [id, entry] : plans_) {
    const QueryPlan& plan = *entry.plan;
    out += obs::ReportLine("#" + std::to_string(id))
               .Text("[" + (entry.stream.empty() ? "default" : entry.stream) +
                     "]")
               .Text(plan.options().ToString())
               .Kv("scanned", plan.sequence_scan().stats().events_seen)
               .Kv("sequences", plan.sequence_scan().matches_out())
               .Kv("selected", plan.selection().matches_out())
               .Kv("windowed", plan.window_filter().matches_out())
               .Kv("survived_negation", plan.negation().matches_out())
               .Kv("outputs", plan.output_count())
               .Kv("errors", plan.eval_error_count())
               .Str();
  }
  return out;
}

}  // namespace sase
