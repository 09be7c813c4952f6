// Unit tests of the OutputMerger on hand-built records: the serial-key order
// it releases in, the safe-index contract of DrainReady, parked tail-negation
// deferrals, dispatch-log compaction, the end-of-stream order and the cursor
// positions it stamps.

#include "runtime/output_merger.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sase {
namespace {

/// A record completed by the event with `seq` (dispatched at `ts`).
TaggedRecord Immediate(QueryId query, int worker, uint64_t arrival,
                       Timestamp ts, SequenceNumber seq) {
  TaggedRecord tagged;
  tagged.query = query;
  tagged.worker = worker;
  tagged.arrival = arrival;
  tagged.record.emit_ts = ts;
  tagged.record.emit_seq = seq;
  return tagged;
}

/// A tail-negation record completed by (`ts`, `seq`) whose window closes at
/// `release_ts`: it triggers on the stream's first event past that.
TaggedRecord Deferred(QueryId query, int worker, uint64_t arrival,
                      Timestamp release_ts, Timestamp ts, SequenceNumber seq) {
  TaggedRecord tagged = Immediate(query, worker, arrival, ts, seq);
  tagged.record.deferred = true;
  tagged.record.release_ts = release_ts;
  return tagged;
}

std::string Label(const TaggedRecord& tagged) {
  return "q" + std::to_string(tagged.query) + "/w" +
         std::to_string(tagged.worker) + "/a" + std::to_string(tagged.arrival);
}

std::vector<std::string> Labels(const std::vector<TaggedRecord>& records) {
  std::vector<std::string> labels;
  for (const TaggedRecord& tagged : records) labels.push_back(Label(tagged));
  return labels;
}

/// Dispatches events with seq and ts first..last on the default stream
/// (global index == seq when the merger starts empty).
void DispatchRange(OutputMerger* merger, SequenceNumber first,
                   SequenceNumber last) {
  for (SequenceNumber seq = first; seq <= last; ++seq) {
    merger->NoteDispatched(kDefaultStream, static_cast<Timestamp>(seq), seq);
  }
}

/// Three workers, events 1..9 round-robin (worker = (seq - 1) % 3). Each
/// worker's records are in its own emission order: per event, plans in
/// query order, a plan's deferrals before its fresh matches. Worker 0's
/// deferral of q1 (window closed at ts 4) triggers on event 5, which went
/// to worker 1, and worker 0 only releases it on its own event 7.
void AddThreeWorkers(OutputMerger* merger) {
  merger->Add({Immediate(1, 2, 0, 3, 3), Immediate(1, 2, 1, 6, 6),
               Immediate(2, 2, 2, 6, 6), Immediate(1, 2, 3, 9, 9)});
  merger->Add({Immediate(2, 0, 0, 1, 1), Immediate(1, 0, 1, 4, 4),
               Deferred(1, 0, 2, 4, 1, 1), Immediate(1, 0, 3, 7, 7)});
  merger->Add({Immediate(1, 1, 0, 2, 2), Immediate(1, 1, 1, 5, 5),
               Immediate(2, 1, 2, 5, 5), Immediate(2, 1, 3, 8, 8)});
}

const std::vector<std::string> kThreeWorkerOrder = {
    "q2/w0/a0",                          // trigger 1
    "q1/w1/a0",                          // trigger 2
    "q1/w2/a0",                          // trigger 3
    "q1/w0/a1",                          // trigger 4
    "q1/w0/a2", "q1/w1/a1", "q2/w1/a2",  // trigger 5: deferral first
    "q1/w2/a1", "q2/w2/a2",              // trigger 6
    "q1/w0/a3",                          // trigger 7
    "q2/w1/a3",                          // trigger 8
    "q1/w2/a3",                          // trigger 9
};

TEST(OutputMergerTest, ThreeWorkersAddedOutOfOrderReleaseInSerialOrder) {
  OutputMerger merger;
  DispatchRange(&merger, 1, 9);
  AddThreeWorkers(&merger);
  EXPECT_EQ(merger.pending_count(), 12u);
  EXPECT_EQ(Labels(merger.DrainReady(9)), kThreeWorkerOrder);
  EXPECT_EQ(merger.pending_count(), 0u);
}

TEST(OutputMergerTest, DrainReadyReleasesExactlyTheTriggersAtOrBelowSafe) {
  OutputMerger merger;
  DispatchRange(&merger, 1, 9);
  AddThreeWorkers(&merger);
  std::vector<std::string> released;
  for (uint64_t safe : {0u, 4u, 4u, 6u, 9u}) {
    auto batch = Labels(merger.DrainReady(safe));
    released.insert(released.end(), batch.begin(), batch.end());
    // Released so far: every record with trigger <= safe, nothing more.
    size_t expected = 0;
    if (safe >= 4) expected = 4;
    if (safe >= 6) expected = 9;
    if (safe >= 9) expected = 12;
    EXPECT_EQ(released.size(), expected) << "safe=" << safe;
    EXPECT_EQ(merger.pending_count(), 12u - expected) << "safe=" << safe;
  }
  EXPECT_EQ(released, kThreeWorkerOrder);
}

TEST(OutputMergerTest, DeferralParksUntilItsTriggerIsDispatched) {
  OutputMerger merger;
  DispatchRange(&merger, 1, 3);
  // q1's window closes at ts 5: no dispatched event is past it yet.
  merger.Add({Deferred(1, 0, 0, 5, 1, 1), Immediate(2, 1, 0, 3, 3)});
  EXPECT_EQ(Labels(merger.DrainReady(3)), std::vector<std::string>{"q2/w1/a0"});
  // An event at the window's close does not trigger it.
  merger.NoteDispatched(kDefaultStream, 5, 4);
  EXPECT_TRUE(merger.DrainReady(4).empty());
  EXPECT_EQ(merger.pending_count(), 1u);
  // The first event past it does, and the deferral releases at its position:
  // before q1's and q2's fresh matches on that event, after everything
  // earlier.
  merger.NoteDispatched(kDefaultStream, 6, 5);
  merger.Add({Immediate(1, 1, 1, 6, 5), Immediate(2, 1, 2, 6, 5)});
  EXPECT_EQ(Labels(merger.DrainReady(5)),
            (std::vector<std::string>{"q1/w0/a0", "q1/w1/a1", "q2/w1/a2"}));
  EXPECT_EQ(merger.pending_count(), 0u);
}

TEST(OutputMergerTest, CompactionNeverLosesAPendingTrigger) {
  OutputMerger merger(/*compact_min=*/1);
  DispatchRange(&merger, 1, 10);
  merger.Add({Immediate(1, 0, 0, 8, 8), Deferred(2, 1, 0, 6, 2, 2),
              Deferred(3, 1, 1, 20, 4, 4)});
  // Nothing triggers at or below 5, but the prefix goes.
  EXPECT_TRUE(merger.DrainReady(5).empty());
  EXPECT_EQ(merger.log_len(), 5u);
  EXPECT_GE(merger.compaction_count(), 1u);
  // q2's deferral triggers on event 7, inside the kept suffix.
  EXPECT_EQ(Labels(merger.DrainReady(7)), std::vector<std::string>{"q2/w1/a0"});
  EXPECT_EQ(Labels(merger.DrainReady(10)), std::vector<std::string>{"q1/w0/a0"});
  EXPECT_EQ(merger.log_len(), 0u);
  // q3's window closes at ts 20: the whole log is gone, and its trigger is
  // still the first event past it.
  merger.NoteDispatched(kDefaultStream, 20, 11);
  EXPECT_TRUE(merger.DrainReady(11).empty());
  merger.NoteDispatched(kDefaultStream, 21, 12);
  EXPECT_EQ(Labels(merger.DrainReady(12)), std::vector<std::string>{"q3/w1/a1"});
  EXPECT_EQ(merger.pending_count(), 0u);
}

TEST(OutputMergerTest, DrainFinalOrdersUntriggeredDeferralsByQueryThenRelease) {
  OutputMerger merger;
  DispatchRange(&merger, 1, 3);
  merger.Add({Deferred(2, 0, 0, 10, 3, 3), Deferred(1, 0, 1, 11, 2, 2)});
  merger.Add({Deferred(1, 1, 0, 12, 1, 1), Immediate(3, 1, 1, 2, 2)});
  merger.Add({Deferred(1, 2, 0, 11, 1, 1)});
  // The resolved record first; then the deferrals whose window never
  // closed, by query, release_ts, then completion (ts, seq).
  EXPECT_EQ(Labels(merger.DrainFinal()),
            (std::vector<std::string>{"q3/w1/a1", "q1/w2/a0", "q1/w0/a1",
                                      "q1/w1/a0", "q2/w0/a0"}));
  EXPECT_EQ(merger.pending_count(), 0u);
  EXPECT_EQ(merger.log_len(), 0u);
}

TEST(OutputMergerTest, CursorPositionsAreConsecutiveFromSeedMerged) {
  OutputMerger merger;
  merger.SeedMerged(100);
  DispatchRange(&merger, 1, 9);
  AddThreeWorkers(&merger);
  merger.Add({Deferred(4, 0, 9, 50, 9, 9)});  // never triggers
  std::vector<TaggedRecord> released = merger.DrainReady(5);
  for (TaggedRecord& tagged : merger.DrainFinal()) {
    released.push_back(std::move(tagged));
  }
  ASSERT_EQ(released.size(), 13u);
  for (size_t i = 0; i < released.size(); ++i) {
    EXPECT_TRUE(released[i].record.cursor_runtime_hosted);
    EXPECT_EQ(released[i].record.cursor_position, 101 + i);
  }
  EXPECT_EQ(Label(released.back()), "q4/w0/a9");
  EXPECT_EQ(merger.merged_count(), 113u);
}

}  // namespace
}  // namespace sase
