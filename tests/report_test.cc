#include "system/report.h"

#include <gtest/gtest.h>

#include "core/catalog.h"
#include "core/event.h"
#include "engine/match.h"

namespace sase {
namespace {

TEST(ReportChannelTest, AppendAndQuery) {
  ReportChannel channel("Message Results");
  EXPECT_EQ(channel.size(), 0u);
  channel.Append("theft detected: TAG-A");
  channel.Append("theft detected: TAG-B");
  EXPECT_EQ(channel.size(), 2u);
  EXPECT_EQ(channel.name(), "Message Results");
  EXPECT_TRUE(channel.Contains("TAG-A"));
  EXPECT_TRUE(channel.Contains("theft"));
  EXPECT_FALSE(channel.Contains("TAG-C"));
}

TEST(ReportChannelTest, ToStringRendersHeaderAndLines) {
  ReportChannel channel("Database Report");
  channel.Append("> SELECT 1");
  std::string text = channel.ToString();
  EXPECT_NE(text.find("=== Database Report ==="), std::string::npos);
  EXPECT_NE(text.find("> SELECT 1"), std::string::npos);
}

TEST(ReportChannelTest, ClearEmpties) {
  ReportChannel channel("x");
  channel.Append("line");
  channel.Clear();
  EXPECT_EQ(channel.size(), 0u);
  EXPECT_FALSE(channel.Contains("line"));
}

EventPtr ShelfReading(const Catalog& catalog, const std::string& tag) {
  EventBuilder b(catalog, "SHELF_READING");
  auto event = b.Set("TagId", tag).Set("AreaId", 3).Build(7, 1);
  EXPECT_TRUE(event.ok());
  return event.value();
}

TEST(ReportChannelTest, EveryEntryKindRendersAsTheEagerLine) {
  Catalog catalog = Catalog::RetailDemo();
  EventPtr event = ShelfReading(catalog, "TAG-A");
  auto record = std::make_shared<OutputRecord>();
  record->stream = "alerts";
  record->timestamp = 9;
  record->names = {"TagId", "AreaId"};
  record->values = {Value("TAG-A"), Value(3)};
  auto prefix = std::make_shared<const std::string>("[shoplifting] ");

  ReportChannel channel("mixed");
  channel.Append("> SELECT 1");
  channel.AppendEvent(event, catalog);
  channel.AppendRecord(record);
  channel.AppendRecord(record, prefix);

  // What the channel held as strings when every append formatted eagerly.
  const std::vector<std::string> eager = {
      "> SELECT 1", event->ToString(catalog), record->ToString(),
      "[shoplifting] " + record->ToString()};
  EXPECT_EQ(eager[1], "SHELF_READING@7{TagId=TAG-A, AreaId=3, ProductName=NULL}");
  EXPECT_EQ(eager[3], "[shoplifting] alerts@9{TagId=TAG-A, AreaId=3}");
  EXPECT_EQ(channel.lines(), eager);
  std::string text = "=== mixed ===\n";
  for (const std::string& line : eager) text += line + "\n";
  EXPECT_EQ(channel.ToString(), text);
  EXPECT_TRUE(channel.Contains("TagId=TAG-A, AreaId=3}"));
  EXPECT_TRUE(channel.Contains("[shoplifting] alerts@9"));
  EXPECT_FALSE(channel.Contains("TAG-B"));
}

TEST(ReportChannelTest, RingKeepsTheNewestEntriesAndCountsEvictions) {
  constexpr size_t kCapacity = ReportChannel::kCapacity;
  ReportChannel channel("ring");
  for (size_t i = 0; i < kCapacity; ++i) channel.Append("line " + std::to_string(i));
  EXPECT_EQ(channel.size(), kCapacity);
  EXPECT_EQ(channel.evicted(), 0u);

  for (size_t i = kCapacity; i < kCapacity + 10; ++i) {
    channel.Append("line " + std::to_string(i));
  }
  EXPECT_EQ(channel.size(), kCapacity);
  EXPECT_EQ(channel.evicted(), 10u);
  std::vector<std::string> lines = channel.lines();
  ASSERT_EQ(lines.size(), kCapacity);
  for (size_t i = 0; i < kCapacity; ++i) {
    ASSERT_EQ(lines[i], "line " + std::to_string(i + 10)) << i;
  }
  EXPECT_FALSE(channel.Contains("line 9\n"));
  EXPECT_FALSE(channel.ToString().find("line 9\n") != std::string::npos);
  EXPECT_NE(channel.ToString().find("line 10\n"), std::string::npos);

  // Clear empties the ring; the count of evicted entries stays, and the
  // ring fills from the start again.
  channel.Clear();
  EXPECT_EQ(channel.size(), 0u);
  EXPECT_EQ(channel.evicted(), 10u);
  channel.Append("fresh");
  EXPECT_EQ(channel.lines(), std::vector<std::string>{"fresh"});
}

TEST(ReportChannelTest, ClearAndEvictionDropTheSharedEvents) {
  Catalog catalog = Catalog::RetailDemo();
  EventPtr cleared = ShelfReading(catalog, "TAG-A");
  EventPtr evicted = ShelfReading(catalog, "TAG-B");
  ReportChannel channel("events");
  channel.AppendEvent(cleared, catalog);
  EXPECT_EQ(cleared.use_count(), 2);
  channel.Clear();
  EXPECT_EQ(cleared.use_count(), 1);

  channel.AppendEvent(evicted, catalog);
  EXPECT_EQ(evicted.use_count(), 2);
  for (size_t i = 0; i < ReportChannel::kCapacity; ++i) channel.Append("x");
  EXPECT_EQ(evicted.use_count(), 1);
  EXPECT_EQ(channel.evicted(), 1u);
}

TEST(ReportChannelTest, EchoPrintsEachEntryAtAppend) {
  Catalog catalog = Catalog::RetailDemo();
  EventPtr event = ShelfReading(catalog, "TAG-A");
  auto record = std::make_shared<OutputRecord>();
  record->timestamp = 2;
  record->names = {"A"};
  record->values = {Value(1)};

  ReportChannel channel("W", /*echo=*/true);
  testing::internal::CaptureStdout();
  channel.Append("hello");
  channel.AppendEvent(event, catalog);
  channel.AppendRecord(record, std::make_shared<const std::string>("[q] "));
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "[W] hello\n[W] SHELF_READING@7{TagId=TAG-A, AreaId=3, ProductName=NULL}\n"
            "[W] [q] out@2{A=1}\n");
}

TEST(ReportBoardTest, ChannelsCreatedOnFirstUse) {
  ReportBoard board;
  EXPECT_EQ(board.Find("anything"), nullptr);
  board.Channel("anything").Append("hello");
  ASSERT_NE(board.Find("anything"), nullptr);
  EXPECT_TRUE(board.Find("anything")->Contains("hello"));
  // Same name returns the same channel.
  board.Channel("anything").Append("again");
  EXPECT_EQ(board.Find("anything")->size(), 2u);
}

TEST(ReportBoardTest, StandardWindowNames) {
  // The Figure-3 window names are stable constants the system layer and
  // tests rely on.
  EXPECT_STREQ(ReportBoard::kPresentQueries, "Present Queries");
  EXPECT_STREQ(ReportBoard::kCleaningOutput,
               "Cleaning and Association Layer Output");
  EXPECT_STREQ(ReportBoard::kDatabaseReport, "Database Report");
  EXPECT_STREQ(ReportBoard::kStreamOutput, "Stream Processor Output");
  EXPECT_STREQ(ReportBoard::kMessageResults, "Message Results");
}

TEST(ReportBoardTest, ChannelNamesSorted) {
  ReportBoard board;
  board.Channel("zeta");
  board.Channel("alpha");
  auto names = board.ChannelNames();
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(OutputRecordTest, GetIsCaseInsensitiveAndNullSafe) {
  OutputRecord record;
  record.names = {"TagId", "AreaId"};
  record.values = {Value("T"), Value(3)};
  EXPECT_EQ(record.Get("tagid").AsString(), "T");
  EXPECT_EQ(record.Get("AREAID").AsInt(), 3);
  EXPECT_TRUE(record.Get("missing").is_null());
}

TEST(OutputRecordTest, ToStringDefaultsStreamName) {
  OutputRecord record;
  record.timestamp = 9;
  record.names = {"A"};
  record.values = {Value(1)};
  EXPECT_EQ(record.ToString(), "out@9{A=1}");
  record.stream = "alerts";
  EXPECT_EQ(record.ToString(), "alerts@9{A=1}");
}

TEST(MatchKeyTest, NegatedSlotsUseSentinel) {
  Match match;
  match.bindings.resize(3);  // all null (as for a pattern of negated slots)
  auto key = match.Key();
  ASSERT_EQ(key.size(), 3u);
  for (auto part : key) {
    EXPECT_EQ(part, static_cast<SequenceNumber>(-1));
  }
}

}  // namespace
}  // namespace sase
