#ifndef SASE_ENGINE_NEGATION_H_
#define SASE_ENGINE_NEGATION_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "engine/function_registry.h"
#include "engine/operator.h"
#include "engine/state_codec.h"
#include "query/analyzer.h"

namespace sase {

/// Enforces the `!`-components of the pattern: a match survives only if no
/// qualifying negated event occurred in the relevant interval.
///
/// Interval semantics (mirrored exactly by the ReferenceMatcher oracle):
///   - negation between positives x and z: candidates with
///     x.ts < t < z.ts (strict, matching strict sequence order);
///   - negation at the pattern head: t in [last.ts - W, first.ts);
///   - negation at the pattern tail: t in (last.ts, first.ts + W].
/// Head/tail negation requires a WITHIN window (enforced by the analyzer).
///
/// Tail negation cannot be decided when the match is constructed — a
/// qualifying event may still arrive until the window closes — so such
/// matches are parked and released once the stream time passes
/// `first.ts + W` (or at flush, which acts as an infinite watermark).
///
/// The operator taps the raw event stream to maintain, per negated
/// component, a time-ordered buffer of candidate events (pre-filtered by
/// the component's single-variable predicates). When the analyzer put the
/// negated variable into the partition equivalence class, the buffer is
/// hash-partitioned by that attribute and only the match's key partition is
/// consulted — the negation-side analogue of PAIS.
class Negation : public Operator {
 public:
  struct Stats {
    uint64_t events_buffered = 0;
    uint64_t events_pruned = 0;
    uint64_t matches_rejected = 0;
    uint64_t matches_deferred = 0;
    uint64_t candidates_examined = 0;
    uint64_t eval_errors = 0;
  };

  /// `specs` come from the analyzer (possibly adjusted by the planner when
  /// partitioning is disabled); `positive_slots` maps positive index ->
  /// slot; `window` in ticks (-1 = unbounded, only legal when every
  /// negation sits between positives).
  Negation(std::vector<NegationSpec> specs, std::vector<int> positive_slots,
           Ticks window, bool use_partitioning,
           const FunctionRegistry* functions);

  const char* name() const override { return "Negation"; }
  void OnEvent(const EventPtr& event) override;
  void OnMatch(const Match& match) override;
  void OnFlush() override;

  /// Advances stream time without an event: releases deferred matches whose
  /// tail window closed strictly before `now`, exactly as an event with that
  /// timestamp would, and, when `prune`, prunes candidate buffers past the 2W
  /// horizon so a quiescent stream's state gauges decay. The sharded runtime
  /// sends watermarks so shards whose partitions go quiet still surface
  /// pending matches promptly.
  void OnWatermark(Timestamp now, bool prune);

  const Stats& stats() const { return stats_; }

  /// Live operator-state footprint for the state-size gauges: candidate
  /// events held across all spec buffers, parked tail-negation deferrals,
  /// and the approximate heap bytes both occupy.
  struct Footprint {
    uint64_t buffered = 0;
    uint64_t pending = 0;
    uint64_t bytes = 0;
  };
  Footprint StateFootprint() const;

  /// Checkpoint state walker: writes per-spec candidate
  /// buffers (plain and key-partitioned) and the parked tail-negation
  /// deferrals with their full binding vectors, plus counters, as codec
  /// lines. LoadState consumes lines until the "--" block divider.
  void SaveState(StateWriter* w) const;
  Status LoadState(StateReader* r);

  /// Per-key state hand-off, the negation half of SequenceScan::HandOff:
  /// moves the key-partitioned candidate buffers and the parked
  /// tail-negation deferrals of `from` into the negation of `to` that
  /// `route` picks — a candidate by itself, a deferral by its first
  /// positive binding. Candidates of one key arriving from several
  /// negations are merged in sequence-number order. Unpartitioned
  /// candidates stay put: a key-partitioned plan never buffers any.
  static void HandOff(const std::vector<Negation*>& from,
                      const std::vector<Negation*>& to,
                      const StateRoute& route);

 private:
  struct Buffer {
    // Unpartitioned candidates in arrival (= time) order.
    std::vector<EventPtr> events;
    // Partitioned candidates; used instead of `events` when the spec has a
    // partition attribute and partitioning is enabled.
    std::unordered_map<Value, std::vector<EventPtr>, ValueHash> by_key;
  };

  bool SpecPartitioned(const NegationSpec& spec) const {
    return use_partitioning_ && spec.partition_attr != kInvalidAttr;
  }

  /// True if some buffered event violates `spec` for `match`.
  bool HasViolation(const NegationSpec& spec, Buffer& buffer,
                    const Match& match);
  bool CheckAll(const Match& match);
  void ReleasePending(Timestamp now, bool flush);
  void PruneBuffers(Timestamp now);

  std::vector<NegationSpec> specs_;
  std::vector<int> positive_slots_;
  Ticks window_;
  bool use_partitioning_;
  const FunctionRegistry* functions_;

  std::vector<Buffer> buffers_;  // aligned with specs_
  bool any_tail_negation_ = false;

  // Matches awaiting their tail-negation window to close, keyed by release
  // time (= first.ts + W); released when stream time passes the key.
  std::multimap<Timestamp, Match> pending_;

  BindingVec scratch_;
  Stats stats_;
  uint64_t events_since_prune_ = 0;
  static constexpr uint64_t kPruneInterval = 1024;
};

}  // namespace sase

#endif  // SASE_ENGINE_NEGATION_H_
