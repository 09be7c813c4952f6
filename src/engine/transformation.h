#ifndef SASE_ENGINE_TRANSFORMATION_H_
#define SASE_ENGINE_TRANSFORMATION_H_

#include <string>
#include <vector>

#include "core/catalog.h"
#include "engine/function_registry.h"
#include "engine/operator.h"
#include "engine/state_codec.h"
#include "query/analyzer.h"

namespace sase {

/// Terminal operator implementing the RETURN clause: "transforms the stream
/// of composite events for final output. It can select a subset of
/// attributes and compute aggregate values like the SELECT clause of SQL.
/// It can also name the output stream ... It can further invoke database
/// operations for retrieval and update."
///
/// - Plain expressions are evaluated per match (this is where the built-in
///   `_retrieveLocation` / `_updateLocation` database functions fire).
/// - Aggregates (COUNT/SUM/AVG/MIN/MAX) are *running* aggregates over the
///   stream of composite events: each incoming match updates the state and
///   the emitted record carries the aggregate's current value.
/// - With an empty RETURN clause the default projection emits every
///   attribute of every positive variable as `var_Attr` columns plus the
///   per-variable timestamps.
class Transformation : public Operator {
 public:
  struct Stats {
    uint64_t records_emitted = 0;
    uint64_t eval_errors = 0;
  };

  /// `query` must outlive the operator (the plan owns both).
  Transformation(const AnalyzedQuery* query, const Catalog* catalog,
                 const FunctionRegistry* functions, OutputCallback callback);

  const char* name() const override { return "Transformation"; }
  void OnMatch(const Match& match) override;

  const Stats& stats() const { return stats_; }

  /// Running-aggregate accumulators held (one per AggregateExpr node in the
  /// RETURN clause) — the operator's state-size gauge. Constant per query
  /// text, but nonzero only for aggregating queries, so the fleet-wide sum
  /// tells an operator how much fold state recovery must rebuild.
  size_t accumulator_count() const { return aggregates_.size(); }

  /// Checkpoint state walker: writes the running-aggregate
  /// fold accumulators (COUNT/SUM/AVG/MIN/MAX state, by collection index —
  /// the same query text collects the same AggregateExpr pre-order) plus
  /// counters. LoadState consumes lines until the "--" block divider.
  void SaveState(StateWriter* w) const;
  Status LoadState(StateReader* r);

 private:
  struct AggregateState {
    const AggregateExpr* node = nullptr;
    int64_t count = 0;
    double sum = 0;
    bool all_int = true;
    int64_t int_sum = 0;
    Value min, max;
  };

  /// Updates `state` with this match's value and returns the running
  /// aggregate result.
  Result<Value> Fold(AggregateState* state, const EvalContext& ctx);

  /// Evaluates an item expression, dispatching aggregate subtrees to their
  /// folded state. Aggregates may appear nested in arithmetic
  /// (e.g. SUM(x.Qty) / COUNT(*)), so evaluation walks the tree.
  Result<Value> EvalItem(const Expr& expr, const EvalContext& ctx);

  const AnalyzedQuery* query_;
  const Catalog* catalog_;
  const FunctionRegistry* functions_;
  OutputCallback callback_;
  bool tail_negation_ = false;  // emission deferred past first_ts + window

  std::vector<std::string> column_names_;
  std::vector<AggregateState> aggregates_;  // one per AggregateExpr node
  Stats stats_;
};

}  // namespace sase

#endif  // SASE_ENGINE_TRANSFORMATION_H_
