#include "engine/negation.h"

#include <algorithm>
#include <iterator>

#include "util/logging.h"
#include "util/value_codec.h"

namespace sase {

Negation::Negation(std::vector<NegationSpec> specs,
                   std::vector<int> positive_slots, Ticks window,
                   bool use_partitioning, const FunctionRegistry* functions)
    : specs_(std::move(specs)), positive_slots_(std::move(positive_slots)),
      window_(window), use_partitioning_(use_partitioning),
      functions_(functions) {
  buffers_.resize(specs_.size());
  for (const auto& spec : specs_) {
    if (spec.next_positive < 0) any_tail_negation_ = true;
  }
  size_t max_slot = positive_slots_.empty() ? 0u : 0u;
  for (int slot : positive_slots_) {
    max_slot = std::max(max_slot, static_cast<size_t>(slot));
  }
  for (const auto& spec : specs_) {
    max_slot = std::max(max_slot, static_cast<size_t>(spec.slot));
  }
  scratch_.resize(max_slot + 1);
}

void Negation::OnEvent(const EventPtr& event) {
  // 1. Buffer the event if any spec is interested in its type.
  for (size_t i = 0; i < specs_.size(); ++i) {
    const NegationSpec& spec = specs_[i];
    if (spec.type_id != event->type()) continue;

    // Apply the single-variable filters once, at buffering time.
    bool pass = true;
    if (!spec.filters.empty()) {
      const size_t slots = scratch_.size();
      scratch_.clear();
      scratch_.resize(slots);  // all-null slots
      scratch_[static_cast<size_t>(spec.slot)] = event;
      EvalContext ctx{&scratch_, functions_};
      for (const auto& filter : spec.filters) {
        auto result = EvalPredicate(*filter, ctx);
        if (!result.ok()) {
          if (stats_.eval_errors == 0) {
            SASE_LOG_WARN << "negation filter error: "
                          << result.status().ToString();
          }
          ++stats_.eval_errors;
          pass = false;
          break;
        }
        if (!result.value()) {
          pass = false;
          break;
        }
      }
    }
    if (!pass) continue;

    Buffer& buffer = buffers_[i];
    if (SpecPartitioned(spec)) {
      buffer.by_key[event->attribute(spec.partition_attr)].push_back(event);
    } else {
      buffer.events.push_back(event);
    }
    ++stats_.events_buffered;
  }

  // 2. Advance the watermark: release deferred matches whose tail window
  // closed strictly before `now` (events at ts == now may still arrive).
  if (!pending_.empty()) ReleasePending(event->timestamp(), /*flush=*/false);

  // 3. Periodically drop buffered events that fell out of every possible
  // future interval.
  if (window_ >= 0 && ++events_since_prune_ >= kPruneInterval) {
    PruneBuffers(event->timestamp());
    events_since_prune_ = 0;
  }
}

void Negation::OnMatch(const Match& match) {
  CountIn();
  if (specs_.empty()) {
    Emit(match);
    return;
  }
  if (any_tail_negation_) {
    // The tail interval stays open until first.ts + W; park the match.
    // Head/middle specs are checked eagerly so hopeless matches don't
    // occupy memory until release.
    for (size_t i = 0; i < specs_.size(); ++i) {
      if (specs_[i].next_positive < 0) continue;
      if (HasViolation(specs_[i], buffers_[i], match)) {
        ++stats_.matches_rejected;
        return;
      }
    }
    ++stats_.matches_deferred;
    pending_.emplace(match.first_ts + window_, match);
    return;
  }
  if (CheckAll(match)) {
    Emit(match);
  } else {
    ++stats_.matches_rejected;
  }
}

void Negation::OnFlush() {
  ReleasePending(0, /*flush=*/true);
  Operator::OnFlush();
}

void Negation::OnWatermark(Timestamp now, bool prune) {
  if (!pending_.empty()) ReleasePending(now, /*flush=*/false);
  if (!prune) return;
  // Watermarks prune the candidate buffers too: pruning only drops events
  // past the conservative 2W horizon (they can never violate a future
  // match), so output is unaffected while the state gauges decay on a
  // quiescent stream.
  PruneBuffers(now);
  events_since_prune_ = 0;
}

Negation::Footprint Negation::StateFootprint() const {
  Footprint fp;
  for (const Buffer& buffer : buffers_) {
    fp.buffered += buffer.events.size();
    fp.bytes += buffer.events.capacity() * sizeof(EventPtr);
    for (const auto& [key, events] : buffer.by_key) {
      fp.buffered += events.size();
      fp.bytes += sizeof(key) + events.capacity() * sizeof(EventPtr);
    }
  }
  fp.pending = pending_.size();
  fp.bytes += pending_.size() * sizeof(std::pair<Timestamp, Match>);
  return fp;
}

bool Negation::CheckAll(const Match& match) {
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (HasViolation(specs_[i], buffers_[i], match)) return false;
  }
  return true;
}

void Negation::ReleasePending(Timestamp now, bool flush) {
  while (!pending_.empty()) {
    auto it = pending_.begin();
    if (!flush && it->first >= now) break;
    Match match = std::move(it->second);
    pending_.erase(it);
    // Only the tail specs remain to check; head/middle were checked at
    // arrival. Re-checking them would be wrong anyway: their buffers may
    // have been pruned since.
    bool ok = true;
    for (size_t i = 0; i < specs_.size(); ++i) {
      if (specs_[i].next_positive >= 0) continue;
      if (HasViolation(specs_[i], buffers_[i], match)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      Emit(match);
    } else {
      ++stats_.matches_rejected;
    }
  }
}

bool Negation::HasViolation(const NegationSpec& spec, Buffer& buffer,
                            const Match& match) {
  // Determine the non-occurrence interval (lo, hi) and bound inclusivity.
  Timestamp lo, hi;
  bool lo_inclusive = false, hi_inclusive = false;
  if (spec.prev_positive >= 0) {
    lo = match.bindings[static_cast<size_t>(
                            positive_slots_[static_cast<size_t>(spec.prev_positive)])]
             ->timestamp();
  } else {
    lo = match.last_ts - window_;  // head negation: window lower bound
    lo_inclusive = true;
  }
  if (spec.next_positive >= 0) {
    hi = match.bindings[static_cast<size_t>(
                            positive_slots_[static_cast<size_t>(spec.next_positive)])]
             ->timestamp();
  } else {
    hi = match.first_ts + window_;  // tail negation: window upper bound
    hi_inclusive = true;
  }

  auto in_interval = [&](Timestamp t) {
    bool above = lo_inclusive ? t >= lo : t > lo;
    bool below = hi_inclusive ? t <= hi : t < hi;
    return above && below;
  };

  auto check_range = [&](const std::vector<EventPtr>& events) {
    // Events are time-sorted; binary search the interval start.
    auto first = std::lower_bound(
        events.begin(), events.end(), lo,
        [](const EventPtr& e, Timestamp t) { return e->timestamp() < t; });
    for (auto it = first; it != events.end(); ++it) {
      const EventPtr& candidate = *it;
      Timestamp t = candidate->timestamp();
      if (hi_inclusive ? t > hi : t >= hi) break;
      if (!in_interval(t)) continue;
      ++stats_.candidates_examined;
      if (spec.cross_preds.empty()) return true;
      // Bind the candidate alongside the match's positives and test the
      // parameterized predicates.
      scratch_ = match.bindings;
      if (scratch_.size() <= static_cast<size_t>(spec.slot)) {
        scratch_.resize(static_cast<size_t>(spec.slot) + 1);
      }
      scratch_[static_cast<size_t>(spec.slot)] = candidate;
      EvalContext ctx{&scratch_, functions_};
      bool all_pass = true;
      for (const auto& pred : spec.cross_preds) {
        auto result = EvalPredicate(*pred, ctx);
        if (!result.ok()) {
          if (stats_.eval_errors == 0) {
            SASE_LOG_WARN << "negation predicate error: "
                          << result.status().ToString();
          }
          ++stats_.eval_errors;
          all_pass = false;
          break;
        }
        if (!result.value()) {
          all_pass = false;
          break;
        }
      }
      if (all_pass) return true;
    }
    return false;
  };

  if (SpecPartitioned(spec)) {
    // Only candidates sharing the match's partition key can violate.
    const Value& key =
        match.bindings[static_cast<size_t>(spec.key_slot)]->attribute(spec.key_attr);
    auto it = buffer.by_key.find(key);
    if (it == buffer.by_key.end()) return false;
    return check_range(it->second);
  }
  return check_range(buffer.events);
}

void Negation::SaveState(StateWriter* w) const {
  w->Line("NS") << stats_.events_buffered << '|' << stats_.events_pruned
                << '|' << stats_.matches_rejected << '|'
                << stats_.matches_deferred << '|' << stats_.candidates_examined
                << '|' << stats_.eval_errors;
  w->EndLine();
  w->Line("NC") << matches_in() << '|' << matches_out();
  w->EndLine();
  for (size_t i = 0; i < buffers_.size(); ++i) {
    const Buffer& buffer = buffers_[i];
    w->Line("NB") << i;
    w->EndLine();
    for (const EventPtr& event : buffer.events) {
      std::string ref = w->Ref(event);
      w->Line("NV") << ref;
      w->EndLine();
    }
    for (const auto& [key, events] : buffer.by_key) {
      w->Line("NP") << EncodeValue(key);
      w->EndLine();
      for (const EventPtr& event : events) {
        std::string ref = w->Ref(event);
        w->Line("NV") << ref;
        w->EndLine();
      }
    }
  }
  // Parked deferrals in release order (multimap iteration order, which
  // restore reproduces: equal keys re-inserted in sequence keep it).
  for (const auto& [release_ts, match] : pending_) {
    std::vector<std::string> refs;
    refs.reserve(match.bindings.size());
    for (const EventPtr& binding : match.bindings) {
      refs.push_back(w->Ref(binding));
    }
    std::ostream& out = w->Line("ND");
    out << release_ts << '|' << match.first_ts << '|' << match.last_ts << '|'
        << refs.size();
    for (const std::string& ref : refs) out << '|' << ref;
    w->EndLine();
  }
}

Status Negation::LoadState(StateReader* r) {
  for (Buffer& buffer : buffers_) {
    buffer.events.clear();
    buffer.by_key.clear();
  }
  pending_.clear();
  events_since_prune_ = 0;
  Buffer* buffer = nullptr;
  std::vector<EventPtr>* target = nullptr;
  while (r->Next()) {
    const std::string& tag = r->tag();
    if (tag == "--") return Status::Ok();
    if (tag == "NS") {
      if (r->field_count() != 6) return r->Malformed("Negation stats");
      SASE_ASSIGN_OR_RETURN(stats_.events_buffered, r->U64(0));
      SASE_ASSIGN_OR_RETURN(stats_.events_pruned, r->U64(1));
      SASE_ASSIGN_OR_RETURN(stats_.matches_rejected, r->U64(2));
      SASE_ASSIGN_OR_RETURN(stats_.matches_deferred, r->U64(3));
      SASE_ASSIGN_OR_RETURN(stats_.candidates_examined, r->U64(4));
      SASE_ASSIGN_OR_RETURN(stats_.eval_errors, r->U64(5));
    } else if (tag == "NC") {
      SASE_ASSIGN_OR_RETURN(uint64_t in, r->U64(0));
      SASE_ASSIGN_OR_RETURN(uint64_t out, r->U64(1));
      RestoreCounters(in, out);
    } else if (tag == "NB") {
      SASE_ASSIGN_OR_RETURN(uint64_t index, r->U64(0));
      if (index >= buffers_.size()) {
        return r->Malformed("buffer index (negation shape)");
      }
      buffer = &buffers_[index];
      target = &buffer->events;
    } else if (tag == "NP") {
      if (buffer == nullptr) return r->Malformed("partition outside buffer");
      SASE_ASSIGN_OR_RETURN(Value key, r->Val(0));
      auto [it, inserted] = buffer->by_key.try_emplace(std::move(key));
      if (!inserted) return r->Malformed("duplicate negation partition");
      target = &it->second;
    } else if (tag == "NV") {
      if (target == nullptr) return r->Malformed("candidate outside buffer");
      SASE_ASSIGN_OR_RETURN(EventPtr event, r->Ev(0));
      if (event == nullptr) return r->Malformed("null negation candidate");
      target->push_back(std::move(event));
    } else if (tag == "ND") {
      SASE_ASSIGN_OR_RETURN(int64_t release_ts, r->I64(0));
      Match match;
      SASE_ASSIGN_OR_RETURN(match.first_ts, r->I64(1));
      SASE_ASSIGN_OR_RETURN(match.last_ts, r->I64(2));
      SASE_ASSIGN_OR_RETURN(uint64_t bindings, r->U64(3));
      if (r->field_count() != 4 + bindings) {
        return r->Malformed("deferral binding count");
      }
      match.bindings.reserve(bindings);
      for (uint64_t i = 0; i < bindings; ++i) {
        SASE_ASSIGN_OR_RETURN(EventPtr binding, r->Ev(4 + i));
        match.bindings.push_back(std::move(binding));
      }
      pending_.emplace(release_ts, std::move(match));
    } else {
      return r->Malformed("Negation tag");
    }
  }
  if (!r->status().ok()) return r->status();
  return Status::ParseError("Negation state truncated (no divider)");
}

void Negation::HandOff(const std::vector<Negation*>& from,
                       const std::vector<Negation*>& to,
                       const StateRoute& route) {
  auto by_seq = [](const EventPtr& a, const EventPtr& b) {
    return a->seq() < b->seq();
  };
  for (Negation* source : from) {
    for (size_t i = 0; i < source->buffers_.size(); ++i) {
      for (auto& [key, events] : source->buffers_[i].by_key) {
        std::vector<std::vector<EventPtr>> pieces(to.size());
        for (EventPtr& event : events) {
          pieces[route(*event)].push_back(std::move(event));
        }
        for (size_t target = 0; target < to.size(); ++target) {
          if (pieces[target].empty()) continue;
          to[target]->stats_.events_buffered += pieces[target].size();
          std::vector<EventPtr>& dest = to[target]->buffers_[i].by_key[key];
          size_t mid = dest.size();
          dest.insert(dest.end(),
                      std::make_move_iterator(pieces[target].begin()),
                      std::make_move_iterator(pieces[target].end()));
          std::inplace_merge(dest.begin(),
                             dest.begin() + static_cast<ptrdiff_t>(mid),
                             dest.end(), by_seq);
        }
      }
      source->buffers_[i].by_key.clear();
    }
    // Deferrals keep their release order: equal release times stay in the
    // source's completion order (the merger orders across sources).
    for (auto& [release_ts, match] : source->pending_) {
      const EventPtr& first = match.bindings[static_cast<size_t>(
          source->positive_slots_.front())];
      to[route(*first)]->pending_.emplace(release_ts, std::move(match));
    }
    source->pending_.clear();
  }
}

void Negation::PruneBuffers(Timestamp now) {
  // A buffered event can only matter for intervals reaching back to
  // now - 2W (tail intervals extend W past a match whose own events span
  // at most W more). Use a conservative 2W + 1 horizon.
  if (window_ < 0) return;
  Timestamp lower = now - 2 * window_ - 1;
  auto prune_vec = [&](std::vector<EventPtr>& events) {
    size_t drop = 0;
    while (drop < events.size() && events[drop]->timestamp() < lower) ++drop;
    if (drop > 0) {
      events.erase(events.begin(), events.begin() + static_cast<ptrdiff_t>(drop));
      stats_.events_pruned += drop;
    }
  };
  for (Buffer& buffer : buffers_) {
    prune_vec(buffer.events);
    for (auto it = buffer.by_key.begin(); it != buffer.by_key.end();) {
      prune_vec(it->second);
      if (it->second.empty()) {
        it = buffer.by_key.erase(it);
      } else {
        ++it;
      }
    }
  }
}

}  // namespace sase
