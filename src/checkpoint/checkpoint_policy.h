#ifndef SASE_CHECKPOINT_CHECKPOINT_POLICY_H_
#define SASE_CHECKPOINT_CHECKPOINT_POLICY_H_

#include <cstdint>
#include <string>

#include "checkpoint/journal.h"

namespace sase {
namespace checkpoint {

/// Who acknowledges delivered output records (docs/recovery.md, the
/// exactly-once section).
enum class AckMode {
  /// Delivery IS acknowledgment: the system self-acks every record it hands
  /// to a sink, and the journal's delivered-output marks double as the ack
  /// cursor. Recovery behaves exactly like the pre-cursor releases —
  /// exactly-once up to the durability of the journal tail. The default.
  kAuto = 0,
  /// Only explicit SaseSystem::AckOutput calls advance the cursor. Records
  /// delivered but not yet durably acked RE-EMIT after a crash (with their
  /// original cursor stamps, so sinks dedup or re-ack idempotently):
  /// at-least-once raw delivery, exactly-once at the acked cursor.
  kConsumer = 1,
};

/// Knobs of the durable checkpoint subsystem, wired through
/// SystemConfig::checkpoint. With `dir` set, a SaseSystem write-ahead
/// journals every published event into `dir` and can snapshot its full
/// processing state there (see docs/recovery.md); SaseSystem::Recover
/// rebuilds a system from the directory after a crash.
struct CheckpointConfig {
  /// Checkpoint directory; empty disables journaling and automatic
  /// snapshots (manual SaseSystem::Checkpoint(dir) still works and writes a
  /// standalone snapshot with no journal).
  std::string dir;

  /// Published events between automatic snapshots; 0 = snapshot only on
  /// explicit Checkpoint() calls.
  uint64_t checkpoint_interval_events = 0;

  /// Journal bytes appended since the last snapshot that trigger an
  /// automatic snapshot regardless of the event interval; 0 disables the
  /// size trigger. Bounds recovery time: replay work is proportional to the
  /// journal suffix.
  uint64_t checkpoint_journal_bytes = 0;

  /// Segment size at which the journal rotates to a fresh file.
  uint64_t journal_rotate_bytes = 8ull << 20;

  /// Durability of each appended record; see FsyncPolicy.
  FsyncPolicy journal_fsync = FsyncPolicy::kNever;

  /// Output acknowledgment mode; see AckMode.
  AckMode ack_mode = AckMode::kAuto;

  /// Consumer acks coalesced into one journaled cursor record (one write,
  /// one fsync under kAlways) — the group-commit batch size. 1 commits
  /// every ack (maximum durability, one fsync per ack under kAlways);
  /// larger values amortize the fsync at the cost of a wider ack-to-disk
  /// crash window. Only meaningful under AckMode::kConsumer.
  uint64_t ack_commit_interval = 32;

  /// WAL group commit: journal records per fsync under
  /// FsyncPolicy::kAlways. 1 (the default) fsyncs every record — the legacy
  /// behavior; larger values amortize the fsync across a group, recovering
  /// orders of magnitude of append throughput while keeping the guarantee
  /// that a record is acked-durable only after its group's fsync (see
  /// docs/recovery.md, "Group commit").
  uint64_t group_commit_interval = 1;

  /// Commit-latency bound for group commit: a record waits at most this
  /// long (microseconds, measured from the group's first record) before its
  /// group is fsynced, enforced at the next append or idle Sync(). 0 = no
  /// time bound (the group closes on count, flush, ack commit, rotation or
  /// idle only).
  uint64_t group_commit_max_delay_us = 2000;
};

/// One observation per published event, fed to the policy by the system.
struct CheckpointSample {
  uint64_t events_since_checkpoint = 0;
  uint64_t journal_bytes_since_checkpoint = 0;
};

enum class CheckpointDecision { kHold, kCheckpoint };

/// Pure decision core of the automatic checkpointer: thresholds only, no
/// clocks, no filesystem and no system dependencies, so the trigger
/// behavior is unit-testable in isolation.
/// The system samples after every fully processed event, acts on
/// kCheckpoint, and calls NoteCheckpoint() when a snapshot completes (or
/// failed, to re-arm the interval rather than retry every event).
class CheckpointPolicy {
 public:
  explicit CheckpointPolicy(CheckpointConfig config);

  CheckpointDecision Evaluate(const CheckpointSample& sample);

  /// Resets the trigger baseline after a snapshot attempt.
  void NoteCheckpoint() { armed_ = true; }

  const CheckpointConfig& config() const { return config_; }

  // --- counters (surfaced through the system stats report) ---
  uint64_t checks() const { return checks_; }
  uint64_t decisions() const { return decisions_; }

  /// One-line state summary for stats reports.
  std::string Describe() const;

 private:
  CheckpointConfig config_;
  /// False between a kCheckpoint decision and NoteCheckpoint(): the system
  /// is acting on the decision, don't re-fire on every event meanwhile.
  bool armed_ = true;
  uint64_t checks_ = 0;
  uint64_t decisions_ = 0;
};

}  // namespace checkpoint
}  // namespace sase

#endif  // SASE_CHECKPOINT_CHECKPOINT_POLICY_H_
