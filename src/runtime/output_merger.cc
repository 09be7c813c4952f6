#include "runtime/output_merger.h"

#include <algorithm>
#include <tuple>

#include "util/logging.h"

namespace sase {
namespace {

/// Composite sort key realizing serial emission order; see the class
/// comment in output_merger.h.
using SortKey = std::tuple<uint64_t,        // global trigger dispatch index
                           QueryId,         // plan iteration order
                           int,             // deferred releases (0) before
                                            // fresh matches (1)
                           Timestamp,       // release_ts (pending-map order)
                           Timestamp,       // completing event ts
                           SequenceNumber,  // completing event seq
                           int,             // worker  (tie-break)
                           uint64_t>;       // arrival (tie-break)

SortKey KeyFor(const TaggedRecord& r, uint64_t trigger) {
  const OutputRecord& rec = r.record;
  return SortKey(trigger, r.query, rec.deferred ? 0 : 1,
                 rec.deferred ? rec.release_ts : 0, rec.emit_ts, rec.emit_seq,
                 r.worker, r.arrival);
}

}  // namespace

uint64_t OutputMerger::NoteDispatched(StreamId stream, Timestamp ts,
                                      SequenceNumber seq) {
  if (logs_.size() <= stream) logs_.resize(static_cast<size_t>(stream) + 1);
  StreamLog& log = logs_[stream];
  if (!log.ts.empty() && (ts < log.ts.back() || seq <= log.seq.back())) {
    if (!warned_order_) {
      SASE_LOG_WARN << "OutputMerger: dispatch log out of stream order "
                    << "(stream=" << stream << " ts=" << ts << " seq=" << seq
                    << "); merge order may drift";
      warned_order_ = true;
    }
    if (ts < log.ts.back()) ts = log.ts.back();
  }
  log.ts.push_back(ts);
  log.seq.push_back(seq);
  log.global.push_back(++dispatched_);
  ++live_entries_;
  peak_log_len_ = std::max(peak_log_len_, live_entries_);
  return dispatched_;
}

void OutputMerger::Add(std::vector<TaggedRecord>&& records) {
  if (pending_.empty()) {
    pending_ = std::move(records);
    return;
  }
  pending_.insert(pending_.end(), std::make_move_iterator(records.begin()),
                  std::make_move_iterator(records.end()));
}

uint64_t OutputMerger::TriggerIndex(const TaggedRecord& record) const {
  if (record.stream >= logs_.size()) return kNoTrigger;
  const StreamLog& log = logs_[record.stream];
  if (record.record.deferred) {
    // First dispatched event of the query's stream with ts strictly greater
    // than the release window's close; until it exists the record is not yet
    // placeable. Compaction never removes it: a prefix is only truncated
    // below a safe index that bounds every live record's trigger.
    auto it = std::upper_bound(log.ts.begin(), log.ts.end(),
                               record.record.release_ts);
    if (it == log.ts.end()) return kNoTrigger;
    return log.global[static_cast<size_t>(it - log.ts.begin())];
  }
  // The completing constituent: seqs are strictly increasing per stream.
  auto it = std::lower_bound(log.seq.begin(), log.seq.end(),
                             record.record.emit_seq);
  if (it == log.seq.end()) return kNoTrigger;
  return log.global[static_cast<size_t>(it - log.seq.begin())];
}

std::vector<TaggedRecord> OutputMerger::Release(const std::vector<bool>& take) {
  std::vector<std::pair<SortKey, size_t>> keyed;
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (take[i]) keyed.emplace_back(KeyFor(pending_[i], TriggerIndex(pending_[i])), i);
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<TaggedRecord> out;
  out.reserve(keyed.size());
  for (const auto& [key, i] : keyed) out.push_back(std::move(pending_[i]));

  std::vector<TaggedRecord> keep;
  keep.reserve(pending_.size() - out.size());
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (!take[i]) keep.push_back(std::move(pending_[i]));
  }
  pending_ = std::move(keep);
  // Stamp each record with its merge ordinal — the runtime-class delivery
  // cursor. The merge order is deterministic (serial-equivalent), and
  // SeedMerged continues the count across recovery, so a record regenerated
  // by journal replay carries the same position it had before the crash.
  for (TaggedRecord& released : out) {
    ++merged_;
    released.record.cursor_runtime_hosted = true;
    released.record.cursor_position = merged_;
  }
  return out;
}

void OutputMerger::Compact(uint64_t safe_index) {
  for (StreamLog& log : logs_) {
    // `global` is strictly increasing: the dead prefix ends at the first
    // entry above the safe index.
    auto it = std::upper_bound(log.global.begin(), log.global.end(), safe_index);
    size_t dead = static_cast<size_t>(it - log.global.begin());
    if (dead < compact_min_) continue;
    log.ts.erase(log.ts.begin(), log.ts.begin() + static_cast<ptrdiff_t>(dead));
    log.seq.erase(log.seq.begin(),
                  log.seq.begin() + static_cast<ptrdiff_t>(dead));
    log.global.erase(log.global.begin(),
                     log.global.begin() + static_cast<ptrdiff_t>(dead));
    live_entries_ -= dead;
    compacted_entries_ += dead;
    ++compactions_;
  }
}

std::vector<TaggedRecord> OutputMerger::DrainReady(uint64_t safe_index) {
  bool any = false;
  std::vector<bool> take(pending_.size(), false);
  for (size_t i = 0; i < pending_.size(); ++i) {
    uint64_t trigger = TriggerIndex(pending_[i]);
    if (trigger != kNoTrigger && trigger <= safe_index) {
      take[i] = true;
      any = true;
    }
  }
  std::vector<TaggedRecord> out;
  if (any) out = Release(take);
  // Everything at or below the safe index is now released and can never be
  // a trigger again; reclaim the prefix.
  Compact(safe_index);
  return out;
}

std::vector<TaggedRecord> OutputMerger::DrainFinal() {
  auto out = Release(std::vector<bool>(pending_.size(), true));
  // The end-of-stream clear reclaims the log like a compaction.
  if (live_entries_ > 0) {
    compacted_entries_ += live_entries_;
    ++compactions_;
  }
  for (StreamLog& log : logs_) {
    log.ts.clear();
    log.seq.clear();
    log.global.clear();
  }
  live_entries_ = 0;
  return out;
}

}  // namespace sase
