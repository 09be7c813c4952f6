#ifndef SASE_ENGINE_OPERATOR_H_
#define SASE_ENGINE_OPERATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "engine/match.h"

namespace sase {

/// Picks, for one event held in operator state, the index of the engine
/// that owns it under a new partition layout: the route of the sharded
/// runtime's per-key state hand-off (QueryEngine::HandOffState).
using StateRoute = std::function<size_t(const Event&)>;

/// Base class of the pipelined query-plan operators.
///
/// The paper implements queries as "a dataflow paradigm with pipelined
/// operators as in relational query processing": a native sequence operator
/// at the bottom feeding selection, window, negation and transformation.
/// Operators receive two flows:
///   - OnEvent: the raw input stream (SequenceScan consumes it to run the
///     NFA; Negation taps it to maintain its non-occurrence buffers; the
///     relational operators ignore it),
///   - OnMatch: composite events produced by the operator below.
/// Both flows are single-threaded and ordered; OnFlush signals stream end
/// (it releases matches deferred by tail negation).
class Operator {
 public:
  virtual ~Operator() = default;

  virtual const char* name() const = 0;

  virtual void OnEvent(const EventPtr& event) { (void)event; }
  virtual void OnMatch(const Match& match) = 0;
  virtual void OnFlush() {
    if (downstream_ != nullptr) downstream_->OnFlush();
  }

  void set_downstream(Operator* downstream) { downstream_ = downstream; }
  Operator* downstream() const { return downstream_; }

  /// Matches received / emitted, for plan statistics and the intermediate-
  /// result-set experiments.
  uint64_t matches_in() const { return matches_in_; }
  uint64_t matches_out() const { return matches_out_; }

  /// Checkpoint restore: continues the in/out counters of the checkpointed
  /// operator so plan statistics survive recovery.
  void RestoreCounters(uint64_t matches_in, uint64_t matches_out) {
    matches_in_ = matches_in;
    matches_out_ = matches_out;
  }

 protected:
  void CountIn() { ++matches_in_; }
  void Emit(const Match& match) {
    ++matches_out_;
    if (downstream_ != nullptr) downstream_->OnMatch(match);
  }

 private:
  Operator* downstream_ = nullptr;  // not owned
  uint64_t matches_in_ = 0;
  uint64_t matches_out_ = 0;
};

}  // namespace sase

#endif  // SASE_ENGINE_OPERATOR_H_
