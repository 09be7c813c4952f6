#include "engine/sequence_scan.h"

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "test_util.h"

namespace sase {
namespace {

using testing::RunEngine;
using testing::StreamBuilder;

class SequenceScanTest : public ::testing::Test {
 protected:
  Catalog catalog_ = Catalog::RetailDemo();
};

TEST_F(SequenceScanTest, SimplePairSequence) {
  StreamBuilder stream(&catalog_);
  stream.Add("SHELF_READING", 1, "A")
        .Add("EXIT_READING", 2, "A")
        .Add("SHELF_READING", 3, "B")
        .Add("EXIT_READING", 4, "B");
  // Without predicates every (shelf, exit) pair with increasing time
  // matches: (1,2), (1,4), (3,4).
  auto out = RunEngine(catalog_, "EVENT SEQ(SHELF_READING x, EXIT_READING z)",
                       stream.events());
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(SequenceScanTest, StrictTemporalOrderExcludesTies) {
  StreamBuilder stream(&catalog_);
  stream.Add("SHELF_READING", 5, "A").Add("EXIT_READING", 5, "A");
  auto out = RunEngine(catalog_, "EVENT SEQ(SHELF_READING x, EXIT_READING z)",
                       stream.events());
  EXPECT_TRUE(out.empty());  // same timestamp -> no sequence
}

TEST_F(SequenceScanTest, AllMatchesEnumerated) {
  // Two shelf events before two exits: 2 x 2 = 4 matches.
  StreamBuilder stream(&catalog_);
  stream.Add("SHELF_READING", 1, "A")
        .Add("SHELF_READING", 2, "B")
        .Add("EXIT_READING", 3, "C")
        .Add("EXIT_READING", 4, "D");
  auto out = RunEngine(catalog_, "EVENT SEQ(SHELF_READING x, EXIT_READING z)",
                       stream.events());
  EXPECT_EQ(out.size(), 4u);
}

TEST_F(SequenceScanTest, WindowExcludesDistantPairs) {
  StreamBuilder stream(&catalog_);
  stream.Add("SHELF_READING", 1, "A")
        .Add("EXIT_READING", 100, "A");
  auto within = RunEngine(catalog_,
                          "EVENT SEQ(SHELF_READING x, EXIT_READING z) WITHIN 99",
                          stream.events());
  EXPECT_EQ(within.size(), 1u);  // 100 - 1 = 99 <= 99
  auto outside = RunEngine(
      catalog_, "EVENT SEQ(SHELF_READING x, EXIT_READING z) WITHIN 98",
      stream.events());
  EXPECT_TRUE(outside.empty());
}

TEST_F(SequenceScanTest, EdgeFilterPrunesNonMatching) {
  StreamBuilder stream(&catalog_);
  stream.Add("SHELF_READING", 1, "A", /*area=*/1)
        .Add("SHELF_READING", 2, "B", /*area=*/2)
        .Add("EXIT_READING", 3, "C", /*area=*/9);
  auto out = RunEngine(
      catalog_,
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.AreaId = 1",
      stream.events());
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(SequenceScanTest, EqualityPredicateViaPartitioning) {
  StreamBuilder stream(&catalog_);
  stream.Add("SHELF_READING", 1, "A")
        .Add("SHELF_READING", 2, "B")
        .Add("EXIT_READING", 3, "A")
        .Add("EXIT_READING", 4, "B");
  auto out = RunEngine(
      catalog_,
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId = z.TagId",
      stream.events());
  EXPECT_EQ(out.size(), 2u);  // (A,A) and (B,B) only
}

TEST_F(SequenceScanTest, PartitioningOnOffEquivalence) {
  StreamBuilder stream(&catalog_);
  for (int i = 0; i < 40; ++i) {
    stream.Add(i % 2 == 0 ? "SHELF_READING" : "EXIT_READING", i + 1,
               "T" + std::to_string(i % 5));
  }
  const std::string query =
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId = z.TagId "
      "WITHIN 20";
  PlanOptions partitioned;
  PlanOptions flat;
  flat.use_partitioning = false;
  EXPECT_EQ(RunEngine(catalog_, query, stream.events(), partitioned),
            RunEngine(catalog_, query, stream.events(), flat));
}

TEST_F(SequenceScanTest, WindowPushdownOnOffEquivalence) {
  StreamBuilder stream(&catalog_);
  for (int i = 0; i < 60; ++i) {
    stream.Add(i % 3 == 0 ? "SHELF_READING"
                          : (i % 3 == 1 ? "COUNTER_READING" : "EXIT_READING"),
               i + 1, "T" + std::to_string(i % 4));
  }
  const std::string query =
      "EVENT SEQ(SHELF_READING x, COUNTER_READING y, EXIT_READING z) "
      "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 15";
  PlanOptions pushed;
  PlanOptions unpushed;
  unpushed.push_window = false;
  EXPECT_EQ(RunEngine(catalog_, query, stream.events(), pushed),
            RunEngine(catalog_, query, stream.events(), unpushed));
}

TEST_F(SequenceScanTest, PredicatePushdownOnOffEquivalence) {
  StreamBuilder stream(&catalog_);
  for (int i = 0; i < 50; ++i) {
    stream.Add(i % 2 == 0 ? "SHELF_READING" : "EXIT_READING", i + 1,
               "T" + std::to_string(i % 3), /*area=*/i % 4);
  }
  const std::string query =
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) "
      "WHERE x.AreaId < 2 AND z.AreaId > 0 WITHIN 25";
  PlanOptions pushed;
  PlanOptions unpushed;
  unpushed.push_predicates = false;
  EXPECT_EQ(RunEngine(catalog_, query, stream.events(), pushed),
            RunEngine(catalog_, query, stream.events(), unpushed));
}

TEST_F(SequenceScanTest, SingleComponentPattern) {
  StreamBuilder stream(&catalog_);
  stream.Add("SHELF_READING", 1, "A", 1)
        .Add("SHELF_READING", 2, "B", 2)
        .Add("EXIT_READING", 3, "C", 3);
  auto out = RunEngine(catalog_, "EVENT SHELF_READING x WHERE x.AreaId = 2",
                       stream.events());
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(SequenceScanTest, SingleStatePatternsKeepNoInstances) {
  // A one-state pattern completes on every accepted event and no later
  // state reads its stack, so nothing may stay live — with or without a
  // window, partitioned or not — while the output is every accepted event.
  constexpr int kEvents = 2000;
  StreamBuilder stream(&catalog_);
  size_t shelf = 0;
  size_t shelf_area2 = 0;
  for (int i = 0; i < kEvents; ++i) {
    const char* type = i % 4 == 3 ? "EXIT_READING" : "SHELF_READING";
    int64_t area = i % 5;
    stream.Add(type, i / 2, "T" + std::to_string(i % 40), area);
    if (i % 4 != 3) {
      ++shelf;
      if (area == 2) ++shelf_area2;
    }
  }
  struct Case {
    const char* text;
    size_t outputs;  // 0 = checked elsewhere (negation decides)
  };
  const Case kCases[] = {
      {"EVENT SHELF_READING s WHERE s.AreaId = 2 RETURN s.TagId", shelf_area2},
      {"EVENT ANY(SHELF_READING s) RETURN s.TagId, s.AreaId", shelf},
      {"EVENT SHELF_READING s WHERE s.AreaId = 2 WITHIN 10 RETURN s.TagId",
       shelf_area2},
      // One positive component partitioned by the negation's equivalence.
      {"EVENT SEQ(SHELF_READING x, !(EXIT_READING y)) "
       "WHERE x.TagId = y.TagId WITHIN 10 RETURN x.TagId",
       0},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.text);
    QueryEngine engine(&catalog_);
    size_t outputs = 0;
    auto id = engine.Register(c.text, [&](const OutputRecord&) { ++outputs; });
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    for (const auto& event : stream.events()) engine.OnEvent(event);
    const SequenceScan& scan = engine.plan(id.value())->sequence_scan();
    EXPECT_EQ(scan.stats().instances_alive, 0u);
    EXPECT_EQ(scan.stats().peak_instances, 0u);
    SequenceScan::Footprint footprint = scan.StateFootprint();
    EXPECT_EQ(footprint.instances, 0u);
    EXPECT_EQ(footprint.partitions, 0u);
    EXPECT_EQ(footprint.bytes, 0u);
    engine.OnFlush();
    if (c.outputs > 0) {
      EXPECT_EQ(outputs, c.outputs);
    }
  }
}

TEST_F(SequenceScanTest, FilterRejectedEventsTouchNoPartition) {
  // The first edge's pushed filter rejects every SHELF_READING, so no event
  // reaches a stack, and none may create a value partition either — not
  // even an empty shell for the periodic sweep to erase later.
  StreamBuilder stream(&catalog_);
  for (int i = 0; i < 200; ++i) {
    stream.Add("SHELF_READING", i, "T" + std::to_string(i % 20), i % 5);
  }
  QueryEngine engine(&catalog_);
  size_t outputs = 0;
  auto id = engine.Register(
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) "
      "WHERE x.TagId = z.TagId AND x.AreaId = 7 WITHIN 10",
      [&](const OutputRecord&) { ++outputs; });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  for (const auto& event : stream.events()) engine.OnEvent(event);
  const SequenceScan& scan = engine.plan(id.value())->sequence_scan();
  EXPECT_EQ(scan.stats().events_seen, 200u);
  EXPECT_EQ(scan.stats().partitions_created, 0u);
  EXPECT_EQ(scan.StateFootprint().partitions, 0u);
  engine.OnFlush();
  EXPECT_EQ(outputs, 0u);
}

TEST_F(SequenceScanTest, StacksPrunedUnderWindow) {
  // Direct operator-level check of the window pushdown: instances older
  // than (now - W) are discarded.
  auto parsed = Parser::Parse(
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) WITHIN 10");
  ASSERT_TRUE(parsed.ok());
  Analyzer analyzer(&catalog_, TimeConfig{});
  auto analyzed = analyzer.Analyze(std::move(parsed).value());
  ASSERT_TRUE(analyzed.ok());
  AnalyzedQuery query = std::move(analyzed).value();
  Nfa nfa = Nfa::Compile(query, true, true);
  FunctionRegistry functions;
  SequenceScan scan(&nfa, query.window_ticks, &functions, query.slot_count());

  StreamBuilder stream(&catalog_);
  for (int i = 0; i < 100; ++i) {
    stream.Add("SHELF_READING", i + 1, "T");
  }
  for (const auto& event : stream.events()) scan.OnEvent(event);
  EXPECT_GT(scan.stats().instances_pruned, 0u);
  // Only events within the last 10 ticks may remain alive.
  EXPECT_LE(scan.stats().instances_alive, 12u);
}

TEST_F(SequenceScanTest, UnboundedWithoutWindowKeepsAllInstances) {
  auto parsed = Parser::Parse("EVENT SEQ(SHELF_READING x, EXIT_READING z)");
  ASSERT_TRUE(parsed.ok());
  Analyzer analyzer(&catalog_, TimeConfig{});
  AnalyzedQuery query = analyzer.Analyze(std::move(parsed).value()).value();
  Nfa nfa = Nfa::Compile(query, true, true);
  FunctionRegistry functions;
  SequenceScan scan(&nfa, -1, &functions, query.slot_count());
  StreamBuilder stream(&catalog_);
  for (int i = 0; i < 50; ++i) stream.Add("SHELF_READING", i + 1, "T");
  for (int i = 0; i < 10; ++i) stream.Add("EXIT_READING", 100 + i, "T");
  for (const auto& event : stream.events()) scan.OnEvent(event);
  // Every first-state instance stays; accepting-state events complete
  // their matches on arrival and are not kept (no later state reads them).
  EXPECT_EQ(scan.stats().instances_alive, 50u);
  EXPECT_EQ(scan.stats().instances_pruned, 0u);
  EXPECT_EQ(scan.stats().matches_emitted, 500u);
}

TEST_F(SequenceScanTest, StatsCountMatches) {
  auto parsed = Parser::Parse("EVENT SEQ(SHELF_READING x, EXIT_READING z)");
  Analyzer analyzer(&catalog_, TimeConfig{});
  AnalyzedQuery query = analyzer.Analyze(std::move(parsed).value()).value();
  Nfa nfa = Nfa::Compile(query, true, true);
  FunctionRegistry functions;
  SequenceScan scan(&nfa, -1, &functions, query.slot_count());
  StreamBuilder stream(&catalog_);
  stream.Add("SHELF_READING", 1, "A").Add("EXIT_READING", 2, "A");
  for (const auto& event : stream.events()) scan.OnEvent(event);
  EXPECT_EQ(scan.stats().events_seen, 2u);
  EXPECT_EQ(scan.stats().matches_emitted, 1u);
  EXPECT_EQ(scan.matches_out(), 1u);
}

}  // namespace
}  // namespace sase
