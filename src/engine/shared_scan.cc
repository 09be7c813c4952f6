#include "engine/shared_scan.h"

#include <algorithm>
#include <sstream>

namespace sase {

SharedScanGroup::SharedScanGroup(const AnalyzedQuery& query,
                                 const PlanOptions& options,
                                 const FunctionRegistry* functions)
    : nfa_(Nfa::Compile(query, /*push_edge_filters=*/false,
                        options.use_partitioning)),
      collector_(&arena_),
      scan_(&nfa_, options.push_window ? query.window_ticks : -1, functions,
            query.slot_count()) {
  scan_.set_downstream(&collector_);
}

std::string SharedScanGroup::GroupKey(const AnalyzedQuery& query,
                                      const PlanOptions& options,
                                      const std::string& stream) {
  // The filterless signature captures edge types, slots, the partition
  // attribute and the partitioned flag — predicate constants are the
  // members' business. slot_count disambiguates patterns whose positive
  // structure matches but whose negated tails widen the binding vector, and
  // the boundedness flag keeps WITHIN-less queries out of W_max groups.
  Nfa shape = Nfa::Compile(query, /*push_edge_filters=*/false,
                           options.use_partitioning);
  std::ostringstream key;
  key << shape.Signature() << '#' << stream << '#' << options.ToString()
      << '#' << query.slot_count() << '#'
      << (query.window_ticks < 0 ? "unbounded" : "bounded");
  return key.str();
}

void SharedScanGroup::AddMember(Ticks window_ticks) {
  ++members_;
  if (scan_.window() >= 0 && window_ticks > scan_.window()) {
    scan_.set_window(window_ticks);
  }
}

bool SharedScanGroup::EnsureScanned(uint64_t epoch, const EventPtr& event) {
  if (scanned_any_ && scanned_epoch_ == epoch) {
    ++shared_hits_;
    return false;
  }
  scanned_any_ = true;
  scanned_epoch_ = epoch;
  BeginEpoch();
  scan_.OnEvent(event);
  fed_any_ = true;
  last_seq_ = event->seq();
  return true;
}

void SharedScanGroup::BeginEpoch() {
  collector_.matches.clear();
  if (++epochs_since_reset_ < kArenaResetInterval) return;
  epochs_since_reset_ = 0;
  // Release the buffer into the arena (deallocate is a no-op), THEN reset
  // the epoch so capacity re-grows to what the workload actually needs.
  {
    std::vector<Match, ArenaAllocator<Match>> drained{
        ArenaAllocator<Match>(&arena_)};
    collector_.matches.swap(drained);
  }
  arena_.Reset();
}

void SharedScanGroup::NoteRestored(bool fed_any, uint64_t last_seq) {
  scanned_any_ = false;  // the next event must reach the restored scan
  fed_any_ = fed_any;
  if (fed_any) last_seq_ = last_seq;
}

void SharedScanGroup::HandOff(const std::vector<SharedScanGroup*>& from,
                              const std::vector<SharedScanGroup*>& to,
                              const StateRoute& route) {
  std::vector<SequenceScan*> from_scans, to_scans;
  bool fed_any = false;
  uint64_t last_seq = 0;
  for (SharedScanGroup* group : from) {
    from_scans.push_back(&group->scan_);
    if (group->fed_any_) {
      fed_any = true;
      last_seq = std::max(last_seq, group->last_seq_);
    }
  }
  for (SharedScanGroup* group : to) {
    to_scans.push_back(&group->scan_);
    group->NoteRestored(fed_any, last_seq);
  }
  SequenceScan::HandOff(from_scans, to_scans, route);
}

}  // namespace sase
