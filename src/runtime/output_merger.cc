#include "runtime/output_merger.h"

#include <algorithm>
#include <functional>

#include "util/logging.h"

namespace sase {

OutputMerger::SortKey OutputMerger::KeyFor(const TaggedRecord& r,
                                           uint64_t trigger) {
  const OutputRecord& rec = r.record;
  return SortKey(trigger, r.query, rec.deferred ? 0 : 1,
                 rec.deferred ? rec.release_ts : 0, rec.emit_ts, rec.emit_seq,
                 r.worker, r.arrival);
}

bool OutputMerger::After(const Keyed& a, const Keyed& b) {
  return b.key < a.key;
}

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
  // This event triggers every parked deferral of the stream whose window
  // closed before it: it is the first event past their release_ts.
  if (stream < parked_.size()) {
    auto& parked = parked_[stream];
    while (!parked.empty() && parked.front().first < ts) {
      std::pop_heap(parked.begin(), parked.end(), std::greater<>());
      Resolve(parked.back().second, dispatched_);
      parked.pop_back();
    }
  }
  return dispatched_;
}

void OutputMerger::Add(std::vector<TaggedRecord>&& records) {
  for (TaggedRecord& record : records) {
    size_t slot;
    if (free_slots_.empty()) {
      slot = slots_.size();
      slots_.push_back(std::move(record));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(record);
    }
    const TaggedRecord& held = slots_[slot];
    uint64_t trigger = TriggerIndex(held);
    // An immediate record always finds its completing event: it was
    // dispatched before any worker saw it.
    if (trigger != kNoTrigger || !held.record.deferred) {
      Resolve(slot, trigger);
      continue;
    }
    if (parked_.size() <= held.stream) {
      parked_.resize(static_cast<size_t>(held.stream) + 1);
    }
    auto& parked = parked_[held.stream];
    parked.emplace_back(held.record.release_ts, slot);
    std::push_heap(parked.begin(), parked.end(), std::greater<>());
  }
}

uint64_t OutputMerger::TriggerIndex(const TaggedRecord& record) const {
  if (record.stream >= logs_.size()) return kNoTrigger;
  const StreamLog& log = logs_[record.stream];
  if (record.record.deferred) {
    // First dispatched event of the query's stream with ts strictly greater
    // than the release window's close. Compaction never removes it: a prefix
    // is only truncated below a safe index that bounds the trigger of every
    // record a worker can still hand over.
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

void OutputMerger::Resolve(size_t slot, uint64_t trigger) {
  ready_.push_back(Keyed{KeyFor(slots_[slot], trigger), slot});
  std::push_heap(ready_.begin(), ready_.end(), After);
}

TaggedRecord OutputMerger::Release(size_t slot) {
  TaggedRecord released = std::move(slots_[slot]);
  free_slots_.push_back(slot);
  // Stamp the merge ordinal — the runtime-class delivery cursor. The merge
  // order is deterministic (serial-equivalent), and SeedMerged continues the
  // count across recovery, so a record regenerated by journal replay
  // carries the same position it had before the crash.
  released.record.cursor_runtime_hosted = true;
  released.record.cursor_position = ++merged_;
  return released;
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

void OutputMerger::PopReady(uint64_t safe_index,
                            std::vector<TaggedRecord>* out) {
  while (!ready_.empty() && std::get<0>(ready_.front().key) <= safe_index) {
    std::pop_heap(ready_.begin(), ready_.end(), After);
    out->push_back(Release(ready_.back().slot));
    ready_.pop_back();
  }
}

std::vector<TaggedRecord> OutputMerger::DrainReady(uint64_t safe_index) {
  std::vector<TaggedRecord> out;
  PopReady(safe_index, &out);
  // Everything at or below the safe index is now released and can never be
  // a trigger again; reclaim the prefix.
  Compact(safe_index);
  return out;
}

std::vector<TaggedRecord> OutputMerger::DrainFinal() {
  // The deferrals whose release window never closed trigger at end-of-stream.
  // kNoTrigger sorts after every real trigger, and the rest of their key is
  // per-query flush order (query id, release_ts, completion order), as
  // QueryEngine::OnFlush emits them.
  for (auto& parked : parked_) {
    for (const auto& entry : parked) Resolve(entry.second, kNoTrigger);
    parked.clear();
  }
  std::vector<TaggedRecord> out;
  PopReady(kNoTrigger, &out);
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
