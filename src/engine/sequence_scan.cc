#include "engine/sequence_scan.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "util/logging.h"
#include "util/value_codec.h"

namespace sase {

SequenceScan::SequenceScan(const Nfa* nfa, Ticks window,
                           const FunctionRegistry* functions, size_t slot_count)
    : nfa_(nfa), window_(window), functions_(functions) {
  scratch_.resize(slot_count);
  unpartitioned_.stacks.resize(nfa_->edge_count());
}

void SequenceScan::OnMatch(const Match& match) {
  // SequenceScan is the plan source; nothing feeds matches into it in a
  // normal plan. Forward defensively so a miswired plan stays visible.
  CountIn();
  Emit(match);
}

void SequenceScan::OnEvent(const EventPtr& event) {
  ++stats_.events_seen;
  const std::vector<int>& states = nfa_->StatesForType(event->type());
  if (!states.empty()) {
    // A one-state pattern stores nothing (its only state is the accepting
    // one, see Process), so it needs no value partitions either.
    if (!nfa_->partitioned() || nfa_->edge_count() == 1) {
      if (window_ >= 0) {
        stats_.instances_pruned +=
            PruneStacks(&unpartitioned_, event->timestamp() - window_);
      }
      // Descending state order: a state's push must observe the previous
      // stack as it was before this event touched it.
      for (auto it = states.rbegin(); it != states.rend(); ++it) {
        if (EdgeFiltersPass(nfa_->edge(static_cast<size_t>(*it)), event)) {
          Process(&unpartitioned_, *it, event);
        }
      }
    } else {
      // PAIS: each candidate state may key the event by a different
      // attribute (x.K1 = y.K2 partitions type-A events by K1 and type-B
      // events by K2), so the partition is resolved per state — and only
      // for an event the state's edge filters accept, so a rejected event
      // creates and prunes no partition.
      for (auto it = states.rbegin(); it != states.rend(); ++it) {
        int state = *it;
        const NfaEdge& edge = nfa_->edge(static_cast<size_t>(state));
        if (!EdgeFiltersPass(edge, event)) continue;
        const Value& key = event->attribute(edge.partition_attr);
        auto [part_it, inserted] = partitions_.try_emplace(key);
        if (inserted) {
          ++stats_.partitions_created;
          part_it->second.stacks.resize(nfa_->edge_count());
        }
        Partition* partition = &part_it->second;
        if (window_ >= 0) {
          stats_.instances_pruned +=
              PruneStacks(partition, event->timestamp() - window_);
        }
        Process(partition, state, event);
      }
    }
  }
  if (window_ >= 0 && ++events_since_sweep_ >= kSweepInterval) {
    SweepPartitions(event->timestamp());
    events_since_sweep_ = 0;
  }
}

bool SequenceScan::EdgeFiltersPass(const NfaEdge& edge, const EventPtr& event) {
  if (edge.filters.empty()) return true;
  scratch_[static_cast<size_t>(edge.slot)] = event;
  EvalContext ctx{&scratch_, functions_};
  bool pass = true;
  for (const auto& filter : edge.filters) {
    auto result = EvalPredicate(*filter, ctx);
    if (!result.ok()) {
      // Evaluation errors fail the predicate; the query keeps running. The
      // count is surfaced through stats so tests can assert clean runs.
      if (stats_.eval_errors == 0) {
        SASE_LOG_WARN << "edge filter error: " << result.status().ToString();
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
  scratch_[static_cast<size_t>(edge.slot)] = nullptr;
  return pass;
}

void SequenceScan::Process(Partition* partition, int state,
                           const EventPtr& event) {
  uint64_t prev_abs = kNoPrev;
  if (state > 0) {
    prev_abs = NewestPredecessor(
        partition->stacks[static_cast<size_t>(state) - 1], event->timestamp());
    if (prev_abs == kNoPrev) return;  // no predecessor precedes event
  }

  if (static_cast<size_t>(state) + 1 == nfa_->edge_count()) {
    // Reached the accepting state: construct every sequence ending here.
    // No later state reads this stack, so the event is not kept.
    Construct(partition, Instance{event, prev_abs});
    return;
  }

  Stack& stack = partition->stacks[static_cast<size_t>(state)];
  stack.items.push_back(Instance{event, prev_abs});
  ++stats_.instances_pushed;
  ++stats_.instances_alive;
  stats_.peak_instances = std::max(stats_.peak_instances, stats_.instances_alive);
}

uint64_t SequenceScan::NewestPredecessor(const Stack& prev, Timestamp ts) {
  // Stacks are time-sorted, so binary search the boundary.
  auto it = std::lower_bound(prev.items.begin(), prev.items.end(), ts,
                             [](const Instance& inst, Timestamp bound) {
                               return inst.event->timestamp() < bound;
                             });
  if (it == prev.items.begin()) return kNoPrev;
  return prev.base + static_cast<uint64_t>(it - prev.items.begin()) - 1;
}

void SequenceScan::Construct(Partition* partition, const Instance& final_instance) {
  const int last_level = static_cast<int>(nfa_->edge_count()) - 1;
  const NfaEdge& last_edge = nfa_->edge(static_cast<size_t>(last_level));
  scratch_[static_cast<size_t>(last_edge.slot)] = final_instance.event;

  if (last_level == 0) {
    EmitCurrent();
  } else {
    Timestamp window_lo = window_ >= 0
                              ? final_instance.event->timestamp() - window_
                              : std::numeric_limits<Timestamp>::min();
    ConstructLevel(partition, last_level - 1, final_instance.prev_abs, window_lo);
  }
  scratch_[static_cast<size_t>(last_edge.slot)] = nullptr;
}

void SequenceScan::ConstructLevel(Partition* partition, int level,
                                  uint64_t max_abs, Timestamp window_lo) {
  if (max_abs == kNoPrev) return;
  const Stack& stack = partition->stacks[static_cast<size_t>(level)];
  if (stack.items.empty() || max_abs < stack.base) return;
  uint64_t hi = std::min(max_abs, stack.size_abs() - 1);
  const NfaEdge& edge = nfa_->edge(static_cast<size_t>(level));

  for (uint64_t abs = hi;; --abs) {
    const Instance& inst = stack.at_abs(abs);
    // Stacks are time-sorted: once below the window's lower bound, every
    // remaining (older) instance is below it too.
    if (inst.event->timestamp() < window_lo) break;
    scratch_[static_cast<size_t>(edge.slot)] = inst.event;
    if (level == 0) {
      EmitCurrent();
    } else {
      ConstructLevel(partition, level - 1, inst.prev_abs, window_lo);
    }
    scratch_[static_cast<size_t>(edge.slot)] = nullptr;
    if (abs == stack.base) break;
  }
}

void SequenceScan::EmitCurrent() {
  Match match;
  match.bindings = scratch_;
  const NfaEdge& first_edge = nfa_->edge(0);
  const NfaEdge& last_edge = nfa_->edge(nfa_->edge_count() - 1);
  match.first_ts =
      scratch_[static_cast<size_t>(first_edge.slot)]->timestamp();
  match.last_ts = scratch_[static_cast<size_t>(last_edge.slot)]->timestamp();
  ++stats_.matches_emitted;
  Emit(match);
}

uint64_t SequenceScan::PruneStacks(Partition* partition, Timestamp lower_bound) {
  uint64_t pruned = 0;
  for (Stack& stack : partition->stacks) {
    size_t drop = 0;
    while (drop < stack.items.size() &&
           stack.items[drop].event->timestamp() < lower_bound) {
      ++drop;
    }
    if (drop > 0) {
      stack.items.erase(stack.items.begin(),
                        stack.items.begin() + static_cast<ptrdiff_t>(drop));
      stack.base += drop;
      pruned += drop;
    }
  }
  stats_.instances_alive -= pruned;
  return pruned;
}

void SequenceScan::SaveState(StateWriter* w) const {
  w->Line("SS") << stats_.events_seen << '|' << stats_.instances_pushed << '|'
                << stats_.instances_pruned << '|' << stats_.matches_emitted
                << '|' << stats_.partitions_created << '|'
                << stats_.instances_alive << '|' << stats_.peak_instances
                << '|' << stats_.eval_errors;
  w->EndLine();
  w->Line("SC") << matches_in() << '|' << matches_out();
  w->EndLine();
  auto save_partition = [&](const std::string& key, const Partition& part) {
    w->Line("SP") << key << '|' << part.stacks.size();
    w->EndLine();
    for (const Stack& stack : part.stacks) {
      w->Line("SK") << stack.base << '|' << stack.items.size();
      w->EndLine();
      for (const Instance& inst : stack.items) {
        // Ref before Line: a first reference emits the event-table line.
        std::string ref = w->Ref(inst.event);
        w->Line("SI") << ref << '|' << inst.prev_abs;
        w->EndLine();
      }
    }
  };
  save_partition("-", unpartitioned_);
  for (const auto& [key, part] : partitions_) {
    save_partition(EncodeValue(key), part);
  }
}

Status SequenceScan::LoadState(StateReader* r) {
  unpartitioned_ = Partition{};
  unpartitioned_.stacks.resize(nfa_->edge_count());
  partitions_.clear();
  events_since_sweep_ = 0;
  Partition* part = nullptr;
  size_t next_stack = 0;
  Stack* stack = nullptr;
  while (r->Next()) {
    const std::string& tag = r->tag();
    if (tag == "--") return Status::Ok();
    if (tag == "SS") {
      if (r->field_count() != 8) return r->Malformed("SequenceScan stats");
      SASE_ASSIGN_OR_RETURN(stats_.events_seen, r->U64(0));
      SASE_ASSIGN_OR_RETURN(stats_.instances_pushed, r->U64(1));
      SASE_ASSIGN_OR_RETURN(stats_.instances_pruned, r->U64(2));
      SASE_ASSIGN_OR_RETURN(stats_.matches_emitted, r->U64(3));
      SASE_ASSIGN_OR_RETURN(stats_.partitions_created, r->U64(4));
      SASE_ASSIGN_OR_RETURN(stats_.instances_alive, r->U64(5));
      SASE_ASSIGN_OR_RETURN(stats_.peak_instances, r->U64(6));
      SASE_ASSIGN_OR_RETURN(stats_.eval_errors, r->U64(7));
    } else if (tag == "SC") {
      SASE_ASSIGN_OR_RETURN(uint64_t in, r->U64(0));
      SASE_ASSIGN_OR_RETURN(uint64_t out, r->U64(1));
      RestoreCounters(in, out);
    } else if (tag == "SP") {
      SASE_ASSIGN_OR_RETURN(std::string key, r->Raw(0));
      SASE_ASSIGN_OR_RETURN(uint64_t stacks, r->U64(1));
      if (stacks != nfa_->edge_count()) {
        return r->Malformed("stack count (NFA shape)");
      }
      if (key == "-") {
        part = &unpartitioned_;
      } else {
        SASE_ASSIGN_OR_RETURN(Value value, r->Val(0));
        auto [it, inserted] = partitions_.try_emplace(std::move(value));
        if (!inserted) return r->Malformed("duplicate partition");
        part = &it->second;
        part->stacks.resize(nfa_->edge_count());
      }
      next_stack = 0;
      stack = nullptr;
    } else if (tag == "SK") {
      if (part == nullptr || next_stack >= part->stacks.size()) {
        return r->Malformed("stack outside partition");
      }
      stack = &part->stacks[next_stack++];
      SASE_ASSIGN_OR_RETURN(stack->base, r->U64(0));
      SASE_ASSIGN_OR_RETURN(uint64_t items, r->U64(1));
      stack->items.clear();
      // The count is advisory (instances arrive as SI lines); clamp the
      // reserve so a corrupt payload cannot force an allocation abort.
      stack->items.reserve(std::min<uint64_t>(items, 4096));
    } else if (tag == "SI") {
      if (stack == nullptr) return r->Malformed("instance outside stack");
      SASE_ASSIGN_OR_RETURN(EventPtr event, r->Ev(0));
      SASE_ASSIGN_OR_RETURN(uint64_t prev, r->U64(1));
      if (event == nullptr) return r->Malformed("null stack instance");
      stack->items.push_back(Instance{std::move(event), prev});
    } else {
      return r->Malformed("SequenceScan tag");
    }
  }
  if (!r->status().ok()) return r->status();
  return Status::ParseError("SequenceScan state truncated (no divider)");
}

void SequenceScan::HandOff(const std::vector<SequenceScan*>& from,
                           const std::vector<SequenceScan*>& to,
                           const StateRoute& route) {
  auto by_seq = [](const Instance& a, const Instance& b) {
    return a.event->seq() < b.event->seq();
  };
  // Keys per target whose back-pointers must be recomputed once every
  // piece has landed: a divided partition, or a second piece of one key.
  std::vector<std::vector<Value>> relink(to.size());
  auto adopt = [&](size_t target, const Value& key, Partition piece,
                   bool whole) {
    auto [it, inserted] = to[target]->partitions_.try_emplace(key);
    if (inserted && whole) {
      it->second = std::move(piece);
      return;
    }
    Partition& partition = it->second;
    partition.stacks.resize(piece.stacks.size());
    for (size_t level = 0; level < piece.stacks.size(); ++level) {
      std::vector<Instance>& items = partition.stacks[level].items;
      std::vector<Instance>& incoming = piece.stacks[level].items;
      size_t mid = items.size();
      items.insert(items.end(), std::make_move_iterator(incoming.begin()),
                   std::make_move_iterator(incoming.end()));
      std::inplace_merge(items.begin(),
                         items.begin() + static_cast<ptrdiff_t>(mid),
                         items.end(), by_seq);
    }
    relink[target].push_back(key);
  };

  for (SequenceScan* source : from) {
    for (auto& [key, partition] : source->partitions_) {
      // Destination of every instance; one destination = the key is whole.
      std::vector<size_t> dest;
      bool divided = false;
      for (const Stack& stack : partition.stacks) {
        for (const Instance& inst : stack.items) {
          dest.push_back(route(*inst.event));
          divided = divided || dest.back() != dest.front();
        }
      }
      if (dest.empty()) continue;  // an empty shell awaiting its sweep
      if (!divided) {
        adopt(dest.front(), key, std::move(partition), /*whole=*/true);
        continue;
      }
      std::vector<Partition> pieces(to.size());
      size_t next = 0;
      for (size_t level = 0; level < partition.stacks.size(); ++level) {
        for (Instance& inst : partition.stacks[level].items) {
          Partition& piece = pieces[dest[next++]];
          piece.stacks.resize(partition.stacks.size());
          piece.stacks[level].items.push_back(std::move(inst));
        }
      }
      for (size_t target = 0; target < to.size(); ++target) {
        if (!pieces[target].stacks.empty()) {
          adopt(target, key, std::move(pieces[target]), /*whole=*/false);
        }
      }
    }
    source->partitions_.clear();
  }
  for (size_t target = 0; target < to.size(); ++target) {
    SequenceScan* scan = to[target];
    for (const Value& key : relink[target]) Relink(&scan->partitions_[key]);
    scan->stats_.instances_alive = scan->StateFootprint().instances;
    scan->stats_.peak_instances =
        std::max(scan->stats_.peak_instances, scan->stats_.instances_alive);
  }
}

void SequenceScan::Relink(Partition* partition) {
  for (size_t level = 0; level < partition->stacks.size(); ++level) {
    Stack& stack = partition->stacks[level];
    stack.base = 0;
    if (level == 0) continue;  // first-state instances have no predecessor
    const Stack& prev = partition->stacks[level - 1];
    std::vector<Instance> kept;
    kept.reserve(stack.items.size());
    for (Instance& inst : stack.items) {
      uint64_t prev_abs = NewestPredecessor(prev, inst.event->timestamp());
      if (prev_abs != kNoPrev) {
        kept.push_back(Instance{std::move(inst.event), prev_abs});
      }
    }
    stack.items = std::move(kept);
  }
}

SequenceScan::Footprint SequenceScan::StateFootprint() const {
  Footprint fp;
  // Bytes count only stream-driven storage: live instances, the vector
  // capacity retained for them, and the dynamic per-key partition shells.
  // The fixed unpartitioned stack frame every scan owns at construction is
  // operator overhead, not state — excluding it lets the gauge reach zero
  // once pruning drains a quiescent stream.
  auto add_items = [&fp](const Partition& partition) {
    for (const Stack& stack : partition.stacks) {
      fp.instances += stack.items.size();
      fp.bytes += stack.items.capacity() * sizeof(Instance);
    }
  };
  add_items(unpartitioned_);
  fp.partitions = partitions_.size();
  for (const auto& [key, partition] : partitions_) {
    fp.bytes += sizeof(key) + partition.stacks.capacity() * sizeof(Stack);
    add_items(partition);
  }
  return fp;
}

void SequenceScan::OnWatermark(Timestamp now) {
  if (window_ < 0) return;
  stats_.instances_pruned += PruneStacks(&unpartitioned_, now - window_);
  SweepPartitions(now);
  events_since_sweep_ = 0;
}

void SequenceScan::SweepPartitions(Timestamp now) {
  if (!nfa_->partitioned() || window_ < 0) return;
  Timestamp lower = now - window_;
  for (auto it = partitions_.begin(); it != partitions_.end();) {
    stats_.instances_pruned += PruneStacks(&it->second, lower);
    bool empty = true;
    for (const Stack& stack : it->second.stacks) {
      if (!stack.items.empty()) {
        empty = false;
        break;
      }
    }
    if (empty) {
      it = partitions_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace sase
