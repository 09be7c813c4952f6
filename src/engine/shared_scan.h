#ifndef SASE_ENGINE_SHARED_SCAN_H_
#define SASE_ENGINE_SHARED_SCAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/operator.h"
#include "engine/planner.h"
#include "util/arena.h"

namespace sase {

/// One shared compiled NFA serving every registered query with the same
/// scan structure — the SASE multi-query optimization (one automaton, many
/// predicate/transform tails).
///
/// ## What can share
/// Two plans share a group when their FILTERLESS NFAs are structurally
/// identical (same edge types, slots and partition attributes — constants
/// in predicates don't matter because edge predicates are not pushed into a
/// shared scan; they are rehomed into each member's Selection residuals),
/// they read the same input stream, were compiled under the same
/// PlanOptions, bind the same number of slots, and agree on window
/// boundedness. The group's scan runs at W_max = max member window: wider
/// than any member needs, which only over-approximates — each member's
/// WindowFilter still enforces its exact WITHIN span, and its Selection
/// evaluates the rehomed edge predicates — so member output is byte-
/// identical to a dedicated plan (the differential harness asserts this
/// across sharing ON/OFF, shard counts and kill-recover).
///
/// ## Per-event protocol
/// The engine stamps every delivered event with a scan epoch; the first
/// member reached in registration order feeds the scan (EnsureScanned),
/// which buffers the constructed matches in an epoch-reset arena; every
/// further member in the same epoch reuses the buffer — that reuse is the
/// `shared_hits` counter, and it is where the 64-structurally-identical-
/// queries workload stops paying 64x scan cost.
///
/// ## Join gate
/// A member registered after the group has consumed events would otherwise
/// see matches built from pre-registration events still alive in the shared
/// stacks — something a dedicated (empty) plan can never produce. The
/// engine gates such members at the last event sequence number the group
/// consumed; QueryPlan::OnSharedMatches drops any match whose first bound
/// event is at or before the gate.
class SharedScanGroup {
 public:
  /// Compiles the group's filterless automaton from the first member's
  /// analyzed query. Subsequent members are structurally identical by key,
  /// so any member's query yields the same automaton.
  SharedScanGroup(const AnalyzedQuery& query, const PlanOptions& options,
                  const FunctionRegistry* functions);

  /// Group identity for `query` on `stream` under `options`. Plans with
  /// equal keys produce byte-identical shared scans.
  static std::string GroupKey(const AnalyzedQuery& query,
                              const PlanOptions& options,
                              const std::string& stream);

  /// Membership refcounting; AddMember widens the scan window to cover the
  /// new member's WITHIN span (never narrows — see window() contract in
  /// SequenceScan).
  void AddMember(Ticks window_ticks);
  void RemoveMember() { --members_; }
  std::size_t member_count() const { return members_; }

  /// Feeds `event` through the shared scan unless this epoch already
  /// scanned it; returns true when the scan ran (false = shared hit).
  bool EnsureScanned(uint64_t epoch, const EventPtr& event);

  /// Matches constructed in the current epoch (valid until the next
  /// EnsureScanned that feeds the scan).
  const Match* matches() const { return collector_.matches.data(); }
  std::size_t match_count() const { return collector_.matches.size(); }

  SequenceScan* scan() { return &scan_; }
  const SequenceScan& scan() const { return scan_; }

  /// Has the scan consumed any event (live or restored), and the sequence
  /// number of the newest one — the join gate for late members.
  bool fed_any() const { return fed_any_; }
  uint64_t last_seq() const { return last_seq_; }

  /// Called after a member's checkpoint payload restored the shared scan's
  /// state: re-arms the epoch bookkeeping and adopts the saved feed
  /// frontier so post-restore registrations gate exactly as they would
  /// have in the original process.
  void NoteRestored(bool fed_any, uint64_t last_seq);

  /// Per-key state hand-off between groups of one key on different engines
  /// (see SequenceScan::HandOff): moves the shared scan's partitions, and
  /// every `to` group adopts the latest feed frontier over `from`, so a
  /// later member gates as it would have on any source engine.
  static void HandOff(const std::vector<SharedScanGroup*>& from,
                      const std::vector<SharedScanGroup*>& to,
                      const StateRoute& route);

  /// Epochs served from the buffer without re-running the scan.
  uint64_t shared_hits() const { return shared_hits_; }
  /// Heap bytes reserved by the match-buffer arena.
  uint64_t arena_bytes() const { return arena_.bytes_reserved(); }

 private:
  struct Collector : public Operator {
    explicit Collector(Arena* arena)
        : matches(ArenaAllocator<Match>(arena)) {}
    const char* name() const override { return "SharedScanCollector"; }
    void OnMatch(const Match& match) override {
      CountIn();
      matches.push_back(match);
    }
    void OnFlush() override {}  // members flush their own tails

    std::vector<Match, ArenaAllocator<Match>> matches;
  };

  /// Clears the match buffer for a new epoch; periodically rebuilds it on
  /// a fresh arena epoch so retained capacity tracks the workload.
  void BeginEpoch();

  Nfa nfa_;
  Arena arena_;
  Collector collector_;
  SequenceScan scan_;

  std::size_t members_ = 0;
  uint64_t scanned_epoch_ = 0;
  bool scanned_any_ = false;
  bool fed_any_ = false;
  uint64_t last_seq_ = 0;
  uint64_t shared_hits_ = 0;
  uint64_t epochs_since_reset_ = 0;
  static constexpr uint64_t kArenaResetInterval = 4096;
};

}  // namespace sase

#endif  // SASE_ENGINE_SHARED_SCAN_H_
