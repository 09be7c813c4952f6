#ifndef SASE_ENGINE_WINDOW_FILTER_H_
#define SASE_ENGINE_WINDOW_FILTER_H_

#include "engine/operator.h"
#include "engine/state_codec.h"
#include "util/time_util.h"

namespace sase {

/// Enforces the WITHIN clause over composite events:
/// `last.ts - first.ts <= W`.
///
/// In the default plan the window is pushed into SequenceScan and this
/// operator sees only conforming matches (it still verifies — the check is
/// two comparisons). With `PlanOptions::push_window = false` it is the sole
/// enforcement point, which the window-scaling ablation (bench E1) uses to
/// measure what the pushdown buys.
class WindowFilter : public Operator {
 public:
  explicit WindowFilter(Ticks window) : window_(window) {}

  const char* name() const override { return "WindowFilter"; }

  void OnMatch(const Match& match) override {
    CountIn();
    if (window_ >= 0 && match.last_ts - match.first_ts > window_) return;
    Emit(match);
  }

  Ticks window() const { return window_; }

  /// Checkpoint state walker: stateless apart from counters.
  /// LoadState consumes until the "--" divider.
  void SaveState(StateWriter* w) const {
    w->Line("WC") << matches_in() << '|' << matches_out();
    w->EndLine();
  }
  Status LoadState(StateReader* r) {
    while (r->Next()) {
      if (r->tag() == "--") return Status::Ok();
      if (r->tag() != "WC") return r->Malformed("WindowFilter tag");
      SASE_ASSIGN_OR_RETURN(uint64_t in, r->U64(0));
      SASE_ASSIGN_OR_RETURN(uint64_t out, r->U64(1));
      RestoreCounters(in, out);
    }
    if (!r->status().ok()) return r->status();
    return Status::ParseError("WindowFilter state truncated (no divider)");
  }

 private:
  Ticks window_;
};

}  // namespace sase

#endif  // SASE_ENGINE_WINDOW_FILTER_H_
