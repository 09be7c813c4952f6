#ifndef SASE_RUNTIME_ELASTIC_POLICY_H_
#define SASE_RUNTIME_ELASTIC_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace sase {

/// Knobs of the load-driven shard autoscaler. All thresholds are evaluated
/// on the dispatcher thread every `check_interval` dispatched events; a
/// grow/shrink decision calls ShardedRuntime::Resize, which quiesces,
/// hands each key's state to its new shard and resumes (see
/// sharded_runtime.h).
struct ElasticConfig {
  /// Master switch; off = the shard count only changes via explicit
  /// Resize() calls.
  bool enabled = false;

  /// Shard-count bounds the policy may move between (each step doubles or
  /// halves, clamped to this range).
  int min_shards = 1;
  int max_shards = 8;

  /// Dispatched events between policy evaluations.
  size_t check_interval = 8192;

  /// Grow when the mean shard-queue occupancy fraction (0..1, queued
  /// batches / queue capacity averaged over shard workers) reaches this
  /// value: the workers are falling behind the dispatcher.
  double grow_queue_frac = 0.5;

  /// Shrink when the mean occupancy fraction stays strictly below this
  /// value: the fleet is mostly idle and fewer shards would do. 0 disables
  /// shrinking.
  double shrink_queue_frac = 0.05;

  /// Optional wall-clock signal: grow when the per-shard event rate
  /// (dispatched events per second / shard count) exceeds this. 0 disables
  /// the rate signal — tests and deterministic replays rely only on queue
  /// occupancy.
  double grow_events_per_sec_per_shard = 0;

  /// Consecutive agreeing evaluations required before a decision fires
  /// (hysteresis: one noisy sample never resizes).
  int hysteresis = 2;

  /// Evaluations to hold after a resize before the next one may fire
  /// (cooldown: lets queues re-settle under the new layout, preventing
  /// grow/shrink oscillation).
  int cooldown = 4;
};

/// One load observation, sampled by the runtime at a policy check. The
/// policy keys off the MEAN queue occupancy, deliberately not the hottest
/// single queue: one skewed partition must not grow the whole fleet, since
/// rehashing cannot split a single key's partition anyway (watch the
/// per-shard routing counts in StatsReport for skew instead).
struct LoadSample {
  int shards = 1;
  /// Mean queued-batches / capacity over the shard workers, 0..1.
  double avg_queue_frac = 0;
  /// Dispatched events per second per shard since the previous check;
  /// <= 0 when wall-clock rates are unavailable (deterministic tests).
  double events_per_sec_per_shard = 0;
};

enum class ElasticDecision { kHold, kGrow, kShrink };

/// Pure decision core of the autoscaler: thresholds + hysteresis +
/// cooldown, no clocks and no runtime dependencies, so the transition
/// behavior is unit-testable without threads. The runtime samples load,
/// calls Evaluate once per check interval, and acts on the decision.
class ElasticPolicy {
 public:
  explicit ElasticPolicy(ElasticConfig config);

  /// Evaluates one sample. Returns kGrow/kShrink only when the same
  /// pressure persisted for `hysteresis` consecutive samples, the cooldown
  /// from the previous decision elapsed, and the bounds allow a step.
  ElasticDecision Evaluate(const LoadSample& sample);

  /// Shard count a decision moves to: double on grow, halve on shrink,
  /// clamped to [min_shards, max_shards]; `current` for kHold.
  int NextShardCount(ElasticDecision decision, int current) const;

  const ElasticConfig& config() const { return config_; }

  // --- counters (surfaced through RuntimeStats / StatsReport) ---
  uint64_t checks() const { return checks_; }
  uint64_t grow_decisions() const { return grow_decisions_; }
  uint64_t shrink_decisions() const { return shrink_decisions_; }

  /// One-line state summary for StatsReport.
  std::string Describe() const;

 private:
  ElasticConfig config_;
  int grow_streak_ = 0;
  int shrink_streak_ = 0;
  int cooldown_left_ = 0;
  uint64_t checks_ = 0;
  uint64_t grow_decisions_ = 0;
  uint64_t shrink_decisions_ = 0;
};

}  // namespace sase

#endif  // SASE_RUNTIME_ELASTIC_POLICY_H_
