#include "engine/planner.h"

#include <algorithm>
#include <sstream>

#include "engine/shared_scan.h"
#include "util/string_util.h"

namespace sase {

std::string PlanOptions::ToString() const {
  std::ostringstream out;
  out << "push_window=" << (push_window ? "on" : "off")
      << " push_predicates=" << (push_predicates ? "on" : "off")
      << " partitioning=" << (use_partitioning ? "on" : "off");
  return out.str();
}

QueryPlan::QueryPlan(AnalyzedQuery query, PlanOptions options,
                     const Catalog* catalog, const FunctionRegistry* functions,
                     OutputCallback callback, bool shared_scan_mode)
    : query_(std::move(query)), options_(options),
      shared_scan_mode_(shared_scan_mode),
      nfa_(Nfa::Compile(query_,
                        options.push_predicates && !shared_scan_mode,
                        options.use_partitioning)) {
  if (!shared_scan_mode_) {
    Ticks scan_window = options_.push_window ? query_.window_ticks : -1;
    scan_ = std::make_unique<SequenceScan>(&nfa_, scan_window, functions,
                                           query_.slot_count());
  }

  // Residual predicates: the analyzer's residuals, plus whatever the
  // disabled optimizations hand back. A shared scan carries no edge
  // predicates regardless of push_predicates (they differ across members),
  // so shared mode always rehomes them here.
  std::vector<ExprPtr> residuals = query_.residual_predicates;
  if (!options_.push_predicates || shared_scan_mode_) {
    for (const auto& filters : query_.edge_filters) {
      residuals.insert(residuals.end(), filters.begin(), filters.end());
    }
  }
  if (!options_.use_partitioning) {
    residuals.insert(residuals.end(), query_.partition_subsumed.begin(),
                     query_.partition_subsumed.end());
  }
  selection_ = std::make_unique<Selection>(std::move(residuals), functions);

  window_ = std::make_unique<WindowFilter>(query_.window_ticks);

  std::vector<NegationSpec> specs = query_.negations;
  if (!options_.use_partitioning) {
    for (auto& spec : specs) {
      spec.cross_preds.insert(spec.cross_preds.end(),
                              spec.subsumed_cross.begin(),
                              spec.subsumed_cross.end());
      spec.partition_attr = kInvalidAttr;
    }
  }
  negation_ = std::make_unique<Negation>(std::move(specs),
                                         query_.positive_slots,
                                         query_.window_ticks,
                                         options_.use_partitioning, functions);

  transformation_ = std::make_unique<Transformation>(&query_, catalog,
                                                     functions,
                                                     std::move(callback));

  if (scan_ != nullptr) scan_->set_downstream(selection_.get());
  selection_->set_downstream(window_.get());
  window_->set_downstream(negation_.get());
  negation_->set_downstream(transformation_.get());
}

void QueryPlan::AttachSharedGroup(SharedScanGroup* group) {
  group_ = group;
  external_scan_ = group == nullptr ? nullptr : group->scan();
}

void QueryPlan::OnEvent(const EventPtr& event) {
  // Negation buffers must observe the event before any match produced from
  // it is checked; see engine/negation.h for the watermark argument.
  negation_->OnEvent(event);
  if (scan_ != nullptr) scan_->OnEvent(event);
}

void QueryPlan::OnSharedMatches(const EventPtr& event, const Match* matches,
                                size_t count) {
  // Same order as the dedicated path: negation observes the raw event
  // before any match constructed from it reaches the checks.
  negation_->OnEvent(event);
  if (count == 0) return;
  const size_t first_slot =
      static_cast<size_t>(query_.positive_slots.front());
  const Ticks window = query_.window_ticks;
  for (size_t i = 0; i < count; ++i) {
    const Match& match = matches[i];
    // The group scans at W_max; a dedicated scan at this member's window
    // would never have constructed a wider match, so drop it before the
    // tail (same `last - first <= W` test WindowFilter applies — this is
    // the pushdown equivalent for shared scans, and it keeps the member's
    // Selection from evaluating predicates on doomed matches).
    if (window >= 0 && match.last_ts - match.first_ts > window) continue;
    if (join_gated_) {
      const EventPtr& first = match.bindings[first_slot];
      if (first != nullptr && first->seq() <= join_gate_seq_) continue;
    }
    selection_->OnMatch(match);
  }
}

void QueryPlan::OnFlush() {
  // Dedicated mode flushes from the scan down; a shared-mode member owns
  // its pipeline only from Selection on (the group's scan has no
  // per-member tail to flush).
  if (scan_ != nullptr) {
    scan_->OnFlush();
  } else {
    selection_->OnFlush();
  }
}

void QueryPlan::OnWatermark(Timestamp now, bool prune) {
  // Scan first (prunes window-expired instances, idempotent when members of
  // a shared group repeat it), then negation (releases deferrals, prunes
  // candidate buffers). Both prunes only discard state that cannot affect
  // any future match, so neither watermark cadence nor skipping the prune
  // ever changes output.
  if (SequenceScan* scan = mutable_scan(); prune && scan != nullptr) {
    scan->OnWatermark(now);
  }
  negation_->OnWatermark(now, prune);
}

uint64_t QueryPlan::eval_error_count() const {
  uint64_t scan_errors =
      scan_ != nullptr ? scan_->stats().eval_errors : 0;  // shared scan is
  // filterless: it cannot raise eval errors for this member.
  return scan_errors + selection_->stats().eval_errors +
         negation_->stats().eval_errors + transformation_->stats().eval_errors;
}

std::string QueryPlan::SaveState() const {
  std::ostringstream out;
  StateWriter writer(&out);
  // Shape guard: NFA structure alone does not pin the query (WITHIN lives
  // in SequenceScan/WindowFilter, residual predicates in Selection), so
  // the payload also records the window span and plan options — a payload
  // can only restore into a plan compiled the same way.
  auto& line = writer.Line("NFA");
  line << EscapeField(nfa_.Signature()) << '|' << query_.window_ticks << '|'
       << EscapeField(options_.ToString());
  if (shared_scan_mode_) {
    // Shared-mode extras: join gate + the group's feed frontier, so a
    // restored engine re-gates late registrations exactly as the original
    // process would have. Older readers never see these (the signature of a
    // shared plan differs from its dedicated twin whenever predicates were
    // pushed; when it doesn't, the fields are simply absent from dedicated
    // payloads and field_count() gates the read).
    line << '|' << (join_gated_ ? 1 : 0) << '|' << join_gate_seq_ << '|'
         << (group_ != nullptr && group_->fed_any() ? 1 : 0) << '|'
         << (group_ != nullptr ? group_->last_seq() : 0);
  }
  writer.EndLine();
  // Fixed operator order, each block closed by a divider; the event table
  // (`E` lines) interleaves wherever an event is first referenced.
  sequence_scan().SaveState(&writer);
  writer.Line("--");
  writer.EndLine();
  negation_->SaveState(&writer);
  writer.Line("--");
  writer.EndLine();
  window_->SaveState(&writer);
  writer.Line("--");
  writer.EndLine();
  selection_->SaveState(&writer);
  writer.Line("--");
  writer.EndLine();
  transformation_->SaveState(&writer);
  writer.Line("--");
  writer.EndLine();
  return out.str();
}

Status QueryPlan::RestoreState(const std::string& payload) {
  std::istringstream in(payload);
  StateReader reader(&in);
  if (!reader.Next() || reader.tag() != "NFA") {
    SASE_RETURN_IF_ERROR(reader.status());
    return Status::ParseError("plan state payload has no NFA signature");
  }
  SASE_ASSIGN_OR_RETURN(std::string raw_sig, reader.Raw(0));
  SASE_ASSIGN_OR_RETURN(std::string signature, UnescapeField(raw_sig));
  SASE_ASSIGN_OR_RETURN(int64_t window, reader.I64(1));
  SASE_ASSIGN_OR_RETURN(std::string raw_options, reader.Raw(2));
  SASE_ASSIGN_OR_RETURN(std::string options, UnescapeField(raw_options));
  if (signature != nfa_.Signature() || window != query_.window_ticks ||
      options != options_.ToString()) {
    return Status::InvalidArgument(
        "plan state was captured on a differently compiled plan ('" +
        signature + "' window " + std::to_string(window) + " " + options +
        " vs '" + nfa_.Signature() + "' window " +
        std::to_string(query_.window_ticks) + " " + options_.ToString() + ")");
  }
  bool restored_fed = false;
  uint64_t restored_last_seq = 0;
  if (shared_scan_mode_ && reader.field_count() > 3) {
    SASE_ASSIGN_OR_RETURN(uint64_t gated, reader.U64(3));
    SASE_ASSIGN_OR_RETURN(join_gate_seq_, reader.U64(4));
    join_gated_ = gated != 0;
    if (reader.field_count() > 5) {
      SASE_ASSIGN_OR_RETURN(uint64_t fed, reader.U64(5));
      SASE_ASSIGN_OR_RETURN(restored_last_seq, reader.U64(6));
      restored_fed = fed != 0;
    }
  }
  SASE_RETURN_IF_ERROR(mutable_scan()->LoadState(&reader));
  if (group_ != nullptr) {
    group_->NoteRestored(restored_fed, restored_last_seq);
  }
  SASE_RETURN_IF_ERROR(negation_->LoadState(&reader));
  SASE_RETURN_IF_ERROR(window_->LoadState(&reader));
  SASE_RETURN_IF_ERROR(selection_->LoadState(&reader));
  SASE_RETURN_IF_ERROR(transformation_->LoadState(&reader));
  if (reader.Next()) {
    return Status::ParseError("trailing data after plan state: '" +
                              reader.tag() + "'");
  }
  return reader.status();
}

void QueryPlan::HandOff(const std::vector<QueryPlan*>& from,
                        const std::vector<QueryPlan*>& to,
                        const StateRoute& route) {
  std::vector<SequenceScan*> from_scans, to_scans;
  std::vector<Negation*> from_negations, to_negations;
  bool gated = false;
  uint64_t gate_seq = 0;
  for (QueryPlan* plan : from) {
    if (plan->scan_ != nullptr) from_scans.push_back(plan->scan_.get());
    from_negations.push_back(plan->negation_.get());
    if (plan->join_gated_) {
      gated = true;
      gate_seq = std::max(gate_seq, plan->join_gate_seq_);
    }
  }
  for (QueryPlan* plan : to) {
    if (plan->scan_ != nullptr) to_scans.push_back(plan->scan_.get());
    to_negations.push_back(plan->negation_.get());
    // Sequence numbers rise along the stream, so the latest gate over the
    // sources still drops every pre-registration event and nothing later.
    plan->SetJoinGate(gated, gate_seq);
  }
  SequenceScan::HandOff(from_scans, to_scans, route);
  Negation::HandOff(from_negations, to_negations, route);
}

std::string QueryPlan::Explain(const Catalog& catalog) const {
  std::ostringstream out;
  out << "=== plan (" << options_.ToString() << ") ===\n";
  out << query_.Explain() << "\n";
  out << "--- NFA ---\n" << nfa_.ToString(catalog) << "\n";
  out << "--- operators ---\n";
  const Operator* ops[] = {&sequence_scan(), selection_.get(), window_.get(),
                           negation_.get(), transformation_.get()};
  for (const Operator* op : ops) {
    out << op->name() << ": in=" << op->matches_in()
        << " out=" << op->matches_out() << "\n";
  }
  return out.str();
}

std::unique_ptr<QueryPlan> Planner::Build(AnalyzedQuery query,
                                          PlanOptions options,
                                          const Catalog* catalog,
                                          const FunctionRegistry* functions,
                                          OutputCallback callback,
                                          bool shared_scan_mode) {
  return std::make_unique<QueryPlan>(std::move(query), options, catalog,
                                     functions, std::move(callback),
                                     shared_scan_mode);
}

}  // namespace sase
