#ifndef SASE_ENGINE_PLANNER_H_
#define SASE_ENGINE_PLANNER_H_

#include <memory>
#include <string>

#include "engine/negation.h"
#include "engine/selection.h"
#include "engine/sequence_scan.h"
#include "engine/transformation.h"
#include "engine/window_filter.h"
#include "nfa/nfa.h"
#include "query/analyzer.h"

namespace sase {

/// Plan-level optimization switches. The defaults are the paper's
/// optimized plan; the ablation benches flip them individually to measure
/// what each pushdown contributes.
struct PlanOptions {
  /// Push WITHIN into SequenceScan (stack pruning + bounded construction).
  bool push_window = true;
  /// Evaluate single-variable predicates on NFA edges instead of Selection.
  bool push_predicates = true;
  /// Partition stacks and negation buffers by the equivalence-class key.
  bool use_partitioning = true;

  std::string ToString() const;
};

class SharedScanGroup;

/// An executable query: the operator pipeline
///   SequenceScan -> Selection -> WindowFilter -> Negation -> Transformation
/// wired per the paper's dataflow ("native sequence operators ... pipelining
/// the event sequences to subsequent operators such as selection, window,
/// negation"). The plan owns the analyzed query and all operators.
///
/// ## Shared-scan mode (multi-query NFA sharing)
/// With `shared_scan_mode`, the plan owns no SequenceScan: the engine
/// attaches a SharedScanGroup whose one automaton serves every structurally
/// identical member (src/engine/shared_scan.h). The plan compiles its NFA
/// without edge predicates (so its signature matches the group's shape) and
/// rehomes those predicates into Selection residuals; events arrive through
/// OnSharedMatches, which lets Negation observe the raw event and then runs
/// the group's buffered matches through the member's own
/// Selection -> WindowFilter -> Negation -> Transformation tail. Output is
/// byte-identical to a dedicated plan.
class QueryPlan {
 public:
  QueryPlan(AnalyzedQuery query, PlanOptions options, const Catalog* catalog,
            const FunctionRegistry* functions, OutputCallback callback,
            bool shared_scan_mode = false);

  /// Feeds one stream event through the plan (negation buffers first, then
  /// the sequence scan; resulting matches flow synchronously to the top).
  void OnEvent(const EventPtr& event);

  // --- shared-scan mode (see class comment) ---

  bool shared_scan_mode() const { return shared_scan_mode_; }

  /// Binds this member to its group. The group's scan serves
  /// sequence_scan()/SaveState/RestoreState from then on.
  void AttachSharedGroup(SharedScanGroup* group);
  SharedScanGroup* shared_group() const { return group_; }

  /// Join gate for members registered after the group consumed events: a
  /// match whose first bound event has seq <= `gate_seq` predates this
  /// member and is dropped (a dedicated plan, starting empty, could never
  /// have produced it).
  void SetJoinGate(bool gated, uint64_t gate_seq) {
    join_gated_ = gated;
    join_gate_seq_ = gate_seq;
  }

  /// Shared-mode event delivery: Negation observes the raw event, then the
  /// group's matches (constructed once for every member) flow through this
  /// member's tail, minus anything the join gate drops.
  void OnSharedMatches(const EventPtr& event, const Match* matches,
                       size_t count);

  /// Signals end-of-stream; releases matches deferred by tail negation.
  void OnFlush();

  /// Advances stream time without an event (see Negation::OnWatermark);
  /// without `prune` it only releases tail-negation deferrals.
  void OnWatermark(Timestamp now, bool prune);

  const AnalyzedQuery& query() const { return query_; }
  const PlanOptions& options() const { return options_; }
  const Nfa& nfa() const { return nfa_; }

  /// The scan feeding this plan: its own in dedicated mode, the group's in
  /// shared-scan mode (only valid there after AttachSharedGroup).
  const SequenceScan& sequence_scan() const {
    return external_scan_ != nullptr ? *external_scan_ : *scan_;
  }
  const Selection& selection() const { return *selection_; }
  const WindowFilter& window_filter() const { return *window_; }
  const Negation& negation() const { return *negation_; }
  const Transformation& transformation() const { return *transformation_; }

  /// Records produced by the RETURN clause so far.
  uint64_t output_count() const { return transformation_->stats().records_emitted; }

  /// Total evaluation errors across all operators (0 on a healthy run).
  uint64_t eval_error_count() const;

  /// Multi-line description: analysis summary, NFA, options, operator
  /// in/out counters.
  std::string Explain(const Catalog& catalog) const;

  /// Serializes the plan's live operator state — active instance stacks,
  /// negation buffers and parked deferrals, running-aggregate accumulators,
  /// operator counters — as one checkpoint payload (docs/recovery.md).
  /// The payload opens with the NFA's structural signature; RestoreState
  /// refuses a payload whose signature does not match this plan, so state
  /// can only be restored into a plan compiled from the same query under
  /// the same options.
  std::string SaveState() const;
  Status RestoreState(const std::string& payload);

  /// Per-key state hand-off between plans compiled from the same query
  /// (the sharded runtime's shard rebuild): moves the dedicated scan's
  /// value partitions and the negation's key-partitioned candidates and
  /// parked deferrals out of `from` into the plan of `to` that `route`
  /// picks (SequenceScan::HandOff, Negation::HandOff). Every `to` plan
  /// takes the latest join gate over `from`; a shared group's scan moves
  /// once per group (SharedScanGroup::HandOff). Selection, WindowFilter
  /// and a key-partitioned plan's Transformation hold counters only.
  static void HandOff(const std::vector<QueryPlan*>& from,
                      const std::vector<QueryPlan*>& to,
                      const StateRoute& route);

 private:
  SequenceScan* mutable_scan() {
    return external_scan_ != nullptr ? external_scan_ : scan_.get();
  }

  AnalyzedQuery query_;
  PlanOptions options_;
  bool shared_scan_mode_ = false;
  Nfa nfa_;
  std::unique_ptr<SequenceScan> scan_;  // null in shared-scan mode
  std::unique_ptr<Selection> selection_;
  std::unique_ptr<WindowFilter> window_;
  std::unique_ptr<Negation> negation_;
  std::unique_ptr<Transformation> transformation_;

  // Shared-scan mode wiring (see class comment).
  SharedScanGroup* group_ = nullptr;     // not owned (engine's)
  SequenceScan* external_scan_ = nullptr;  // = group_->scan()
  bool join_gated_ = false;
  uint64_t join_gate_seq_ = 0;
};

/// Builds executable plans from analyzed queries.
class Planner {
 public:
  /// Compiles `query` under `options`. When an optimization is disabled the
  /// planner rehomes the affected predicates (pushed-down edge filters and
  /// partition-subsumed equivalence tests become Selection residuals) so
  /// every configuration computes identical results.
  static std::unique_ptr<QueryPlan> Build(AnalyzedQuery query,
                                          PlanOptions options,
                                          const Catalog* catalog,
                                          const FunctionRegistry* functions,
                                          OutputCallback callback,
                                          bool shared_scan_mode = false);
};

}  // namespace sase

#endif  // SASE_ENGINE_PLANNER_H_
