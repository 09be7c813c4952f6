#ifndef SASE_ENGINE_SELECTION_H_
#define SASE_ENGINE_SELECTION_H_

#include <vector>

#include "engine/function_registry.h"
#include "engine/operator.h"
#include "engine/state_codec.h"
#include "query/expr.h"

namespace sase {

/// Relational selection over composite events: evaluates the WHERE
/// conjuncts that were not pushed into the sequence operator (cross-
/// variable predicates outside the partition class, plus everything the
/// planner demoted when running with pushdown disabled).
class Selection : public Operator {
 public:
  struct Stats {
    uint64_t eval_errors = 0;
  };

  Selection(std::vector<ExprPtr> predicates, const FunctionRegistry* functions);

  const char* name() const override { return "Selection"; }
  void OnMatch(const Match& match) override;

  const Stats& stats() const { return stats_; }
  size_t predicate_count() const { return predicates_.size(); }

  /// Checkpoint state walker: Selection holds no cross-event
  /// state, only counters. LoadState consumes until the "--" divider.
  void SaveState(StateWriter* w) const {
    w->Line("LS") << matches_in() << '|' << matches_out() << '|'
                  << stats_.eval_errors;
    w->EndLine();
  }
  Status LoadState(StateReader* r) {
    while (r->Next()) {
      if (r->tag() == "--") return Status::Ok();
      if (r->tag() != "LS") return r->Malformed("Selection tag");
      SASE_ASSIGN_OR_RETURN(uint64_t in, r->U64(0));
      SASE_ASSIGN_OR_RETURN(uint64_t out, r->U64(1));
      SASE_ASSIGN_OR_RETURN(stats_.eval_errors, r->U64(2));
      RestoreCounters(in, out);
    }
    if (!r->status().ok()) return r->status();
    return Status::ParseError("Selection state truncated (no divider)");
  }

 private:
  /// Compiled form of a `var.attr <cmp> int-literal` conjunct — the dominant
  /// residual shape once shared scans rehome edge filters here. Evaluating
  /// it is two loads and a compare instead of a virtual Eval() tree walk
  /// with Value temporaries. `slot < 0` marks "no fast form; use the tree".
  /// The fast path only fires when the binding is present and the attribute
  /// is an int (same outcome the tree produces for that case); anything
  /// else — unbound slot, NULL or non-int attribute — falls back to the
  /// tree so errors and NULL-comparison semantics stay byte-identical.
  struct FastPred {
    int slot = -1;
    AttrIndex attr = kInvalidAttr;
    BinaryOp op = BinaryOp::kEq;
    int64_t rhs = 0;
  };
  static FastPred CompileFast(const Expr& predicate);

  std::vector<ExprPtr> predicates_;
  std::vector<FastPred> fast_;  // parallel to predicates_
  const FunctionRegistry* functions_;
  Stats stats_;
};

}  // namespace sase

#endif  // SASE_ENGINE_SELECTION_H_
