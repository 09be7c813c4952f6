#ifndef SASE_ENGINE_SEQUENCE_SCAN_H_
#define SASE_ENGINE_SEQUENCE_SCAN_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "engine/function_registry.h"
#include "engine/operator.h"
#include "engine/state_codec.h"
#include "nfa/nfa.h"

namespace sase {

/// The native sequence operator (the paper's "Sequence Scan and
/// Construction"): runs the compiled NFA over the event stream and emits
/// every event sequence that satisfies the pattern's type/order
/// constraints, the pushed-down edge predicates, the partition equivalence
/// and (when pushed down) the sliding window.
///
/// ## Active Instance Stacks (AIS)
/// One stack per NFA state holds the events accepted by that state's edge,
/// in arrival (= timestamp) order. Each pushed instance records the
/// absolute index of the most recent instance in the *previous* stack whose
/// timestamp is strictly smaller — the newest viable predecessor. When an
/// event is accepted by the final state, *sequence construction* walks
/// these back-pointers: at each level every instance with index <= the
/// recorded pointer is a valid predecessor, so a depth-first descent
/// enumerates all matches without re-checking timestamps (stacks are
/// time-sorted). The final state's own stack stays empty: its events
/// complete their matches on arrival and no later state reads them.
///
/// ## Partitioned Active Instance Stacks (PAIS)
/// When the WHERE clause carries an equivalence test across all pattern
/// variables (e.g. `x.TagId = y.TagId = z.TagId`), stacks are partitioned
/// by that attribute's value: each key gets its own stack set, so
/// construction touches only sequences that already satisfy the
/// equivalence. This is the paper's "indexing relevant events ... across
/// value-based partitions".
///
/// ## Window pushdown
/// With `WITHIN W` pushed down, an instance whose timestamp is older than
/// `now - W` can never begin (or be part of) a sequence ending at or after
/// `now`; stacks are pruned on arrival and construction stops descending at
/// the window's lower bound. This is the paper's "sequence index in
/// temporal order" for large sliding windows.
class SequenceScan : public Operator {
 public:
  struct Stats {
    uint64_t events_seen = 0;
    uint64_t instances_pushed = 0;
    uint64_t instances_pruned = 0;
    uint64_t matches_emitted = 0;
    uint64_t partitions_created = 0;
    uint64_t instances_alive = 0;
    uint64_t peak_instances = 0;
    uint64_t eval_errors = 0;
  };

  /// `window` in ticks; pass -1 to disable window pushdown (the
  /// WindowFilter operator then enforces WITHIN). `slot_count` is the total
  /// number of pattern variables (positive + negated).
  SequenceScan(const Nfa* nfa, Ticks window, const FunctionRegistry* functions,
               size_t slot_count);

  const char* name() const override { return "SequenceScan"; }
  void OnEvent(const EventPtr& event) override;
  void OnMatch(const Match& match) override;  // pass-through (source operator)

  const Stats& stats() const { return stats_; }

  /// Live operator-state footprint for the state-size gauges: partial-match
  /// instances currently stacked, value partitions holding them, and the
  /// approximate heap bytes the stacks reserve (capacity, not size — the
  /// reserved memory is what an operator actually pays for).
  struct Footprint {
    uint64_t instances = 0;
    uint64_t partitions = 0;
    uint64_t bytes = 0;
  };
  Footprint StateFootprint() const;

  /// Advances stream time without an event: prunes instances the pushdown
  /// window already excludes (they cannot join any sequence ending at or
  /// after `now`, so output is unaffected) and sweeps empty partitions.
  /// Lets a quiescent stream's state gauges decay to ~0 once the window
  /// passes instead of waiting for the next arrival. No-op without window
  /// pushdown.
  void OnWatermark(Timestamp now);

  /// Current pushdown window in ticks (-1 = disabled). A shared scan
  /// (multi-query sharing, src/engine/shared_scan.h) widens its window to
  /// the maximum over member queries; widening is always safe because the
  /// WindowFilter/Selection tail of each member still enforces the exact
  /// per-query span.
  Ticks window() const { return window_; }
  void set_window(Ticks window) { window_ = window; }

  /// Checkpoint state walker: writes every partition's active
  /// instance stacks — bases, events, back-pointers — plus counters, as
  /// codec lines. LoadState consumes lines until the "--" block divider,
  /// replacing the operator's state wholesale; the hosting plan must have
  /// been compiled from the same query/options (validated via the NFA
  /// signature at the plan level).
  void SaveState(StateWriter* w) const;
  Status LoadState(StateReader* r);

  /// Per-key state hand-off (the sharded runtime's shard rebuild): moves
  /// every value partition of the scans in `from` into the scan of `to`
  /// that `route` picks for the partition's events. All scans run the same
  /// NFA. A partition whose instances all route to one scan moves whole,
  /// with its bases and back-pointers. A partition divided across scans,
  /// and pieces of one key arriving from several scans, are merged per
  /// stack in sequence-number order and their back-pointers recomputed by
  /// the rule Process uses; an instance left without a predecessor is
  /// dropped, as Process would never have pushed it. The unpartitioned
  /// stacks stay put: a key-partitioned plan never fills them.
  static void HandOff(const std::vector<SequenceScan*>& from,
                      const std::vector<SequenceScan*>& to,
                      const StateRoute& route);

 private:
  // An accepted event at some NFA state. `prev_abs` is the absolute index
  // (stable under pruning) of its newest viable predecessor in the previous
  // stack, or kNoPrev for the first state.
  static constexpr uint64_t kNoPrev = ~uint64_t{0};
  struct Instance {
    EventPtr event;
    uint64_t prev_abs;
  };

  // A stack with a stable absolute index space: element i of `items` has
  // absolute index base + i. Pruning pops from the front and advances base.
  struct Stack {
    std::vector<Instance> items;
    uint64_t base = 0;

    uint64_t size_abs() const { return base + items.size(); }
    const Instance& at_abs(uint64_t abs) const { return items[abs - base]; }
  };

  // One stack per NFA state; a single Partition serves the whole stream
  // unless the NFA is partitioned.
  struct Partition {
    std::vector<Stack> stacks;
  };

  /// Pushes (or, at the accepting state, completes) `event` at `state`;
  /// the caller has checked the state's edge filters.
  void Process(Partition* partition, int state, const EventPtr& event);
  /// Absolute index of the newest instance in `prev` whose timestamp is
  /// strictly smaller than `ts` (stacks are time-sorted), or kNoPrev.
  static uint64_t NewestPredecessor(const Stack& prev, Timestamp ts);
  /// Recomputes a merged partition's back-pointers from scratch (bases
  /// restart at 0), dropping instances left without a predecessor.
  static void Relink(Partition* partition);
  bool EdgeFiltersPass(const NfaEdge& edge, const EventPtr& event);
  void Construct(Partition* partition, const Instance& final_instance);
  void ConstructLevel(Partition* partition, int level, uint64_t max_abs,
                      Timestamp window_lo);
  uint64_t PruneStacks(Partition* partition, Timestamp lower_bound);
  void SweepPartitions(Timestamp now);
  void EmitCurrent();

  const Nfa* nfa_;
  Ticks window_;
  const FunctionRegistry* functions_;

  Partition unpartitioned_;
  std::unordered_map<Value, Partition, ValueHash> partitions_;

  BindingVec scratch_;  // flat binding buffer reused across matches
  Stats stats_;
  uint64_t events_since_sweep_ = 0;
  static constexpr uint64_t kSweepInterval = 4096;
};

}  // namespace sase

#endif  // SASE_ENGINE_SEQUENCE_SCAN_H_
