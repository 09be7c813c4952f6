// Unit tests for the durable checkpoint subsystem's building blocks: the
// write-ahead event journal (framing, CRC validation, segment rotation,
// torn-tail handling), the snapshot/manifest files, and the automatic
// checkpoint policy. End-to-end kill-and-recover coverage lives in
// recovery_test.cc.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint/checkpoint_policy.h"
#include "checkpoint/journal.h"
#include "checkpoint/snapshot.h"
#include "core/catalog.h"
#include "core/event.h"
#include "db/database.h"
#include "util/crc32.h"

namespace sase {
namespace checkpoint {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/sase_checkpoint_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

EventPtr MakeEvent(const Catalog& catalog, const std::string& type,
                   Timestamp ts, SequenceNumber seq, const std::string& tag) {
  EventBuilder builder(catalog, type);
  auto event =
      builder.Set("TagId", tag).Set("AreaId", 2).Set("ProductName", "Soap")
          .Build(ts, seq);
  EXPECT_TRUE(event.ok()) << event.status().ToString();
  return event.value();
}

// --- journal ----------------------------------------------------------------

TEST(EventJournalTest, RoundTripsEveryRecordKind) {
  Catalog catalog = Catalog::RetailDemo();
  std::string dir = FreshDir("roundtrip");
  auto journal = EventJournal::Open(dir, /*snapshot=*/3, /*start_segment=*/0,
                                    /*rotate_bytes=*/1 << 20,
                                    FsyncPolicy::kNever);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EventJournal& writer = *journal.value();

  EventPtr e1 = MakeEvent(catalog, "SHELF_READING", 10, 1, "TAG|1\nx");
  EventPtr e2 = MakeEvent(catalog, "EXIT_READING", 12, 2, "TAG2");
  ASSERT_TRUE(writer.AppendEvent("", *e1).ok());
  ASSERT_TRUE(writer.AppendEvent("sensors", *e2).ok());
  ASSERT_TRUE(writer.AppendOutputMark(41, 7).ok());
  ASSERT_TRUE(writer.AppendRegister(true, "loc", "EVENT ANY(...)").ok());
  ASSERT_TRUE(writer.AppendFlush().ok());
  EXPECT_EQ(writer.records_written(), 5u);

  auto scan = ReadJournal(dir, 3);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_FALSE(scan.value().truncated) << scan.value().truncation_reason;
  ASSERT_EQ(scan.value().records.size(), 5u);
  EXPECT_EQ(scan.value().next_segment, 1u);

  const auto& records = scan.value().records;
  EXPECT_EQ(records[0].kind, JournalRecord::Kind::kEvent);
  EXPECT_EQ(records[0].type, e1->type());
  EXPECT_EQ(records[0].timestamp, 10);
  EXPECT_EQ(records[0].seq, 1u);
  ASSERT_EQ(records[0].values.size(), e1->attribute_count());
  EXPECT_EQ(records[0].values[0].AsString(), "TAG|1\nx");

  EXPECT_EQ(records[1].kind, JournalRecord::Kind::kStreamEvent);
  EXPECT_EQ(records[1].stream, "sensors");
  EXPECT_EQ(records[1].type, e2->type());

  EXPECT_EQ(records[2].kind, JournalRecord::Kind::kOutputMark);
  EXPECT_EQ(records[2].delivered_runtime, 41u);
  EXPECT_EQ(records[2].delivered_serial, 7u);

  EXPECT_EQ(records[3].kind, JournalRecord::Kind::kRegister);
  EXPECT_TRUE(records[3].archiving);
  EXPECT_EQ(records[3].name, "loc");
  EXPECT_EQ(records[3].text, "EVENT ANY(...)");

  EXPECT_EQ(records[4].kind, JournalRecord::Kind::kFlush);
}

TEST(EventJournalTest, RotatesSegmentsAndReadsAcrossThem) {
  Catalog catalog = Catalog::RetailDemo();
  std::string dir = FreshDir("rotation");
  auto journal = EventJournal::Open(dir, 1, 0, /*rotate_bytes=*/256,
                                    FsyncPolicy::kNever);
  ASSERT_TRUE(journal.ok());
  constexpr int kRecords = 40;
  for (int i = 0; i < kRecords; ++i) {
    EventPtr event = MakeEvent(catalog, "SHELF_READING", i, i, "TAG");
    ASSERT_TRUE(journal.value()->AppendEvent("", *event).ok());
  }
  EXPECT_GT(journal.value()->rotations(), 2u);

  auto scan = ReadJournal(dir, 1);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan.value().truncated);
  EXPECT_EQ(scan.value().records.size(), static_cast<size_t>(kRecords));
  EXPECT_GT(scan.value().segments_read, 3u);
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(scan.value().records[static_cast<size_t>(i)].timestamp, i);
  }

  // A different epoch sees nothing.
  auto other = ReadJournal(dir, 2);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other.value().records.empty());
  EXPECT_EQ(other.value().next_segment, 0u);
}

TEST(EventJournalTest, DetectsCorruptAndTornTails) {
  Catalog catalog = Catalog::RetailDemo();
  std::string dir = FreshDir("corrupt");
  {
    auto journal = EventJournal::Open(dir, 1, 0, 1 << 20, FsyncPolicy::kNever);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 10; ++i) {
      EventPtr event = MakeEvent(catalog, "SHELF_READING", i, i, "TAG");
      ASSERT_TRUE(journal.value()->AppendEvent("", *event).ok());
    }
  }
  std::string path = dir + "/" + SegmentFileName(1, 0);
  auto size = std::filesystem::file_size(path);

  // Flip one byte inside the last record's payload: CRC must catch it and
  // the scan must keep everything before the damage.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(size) - 3);
    file.put('\xFF');
  }
  auto scan = ReadJournal(dir, 1);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().truncated);
  EXPECT_NE(scan.value().truncation_reason.find("CRC"), std::string::npos);
  EXPECT_EQ(scan.value().records.size(), 9u);

  // Tear the tail mid-record (crash while appending): same clean stop.
  std::filesystem::resize_file(path, size - 5);
  scan = ReadJournal(dir, 1);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().truncated);
  EXPECT_NE(scan.value().truncation_reason.find("torn"), std::string::npos);
  EXPECT_EQ(scan.value().records.size(), 9u);
  EXPECT_EQ(scan.value().truncated_segment, 0u);
  EXPECT_GT(scan.value().truncated_offset, 0u);

  // Repair cuts the torn tail out: journaling resumes at the next segment
  // and a rescan is clean through both the old prefix and new appends —
  // without the repair, the next scan would stop at the old crash point
  // and hide every record journaled after recovery.
  uint64_t resume = RepairJournal(dir, 1, scan.value());
  EXPECT_EQ(resume, 1u);
  {
    auto journal = EventJournal::Open(dir, 1, resume, 1 << 20,
                                      FsyncPolicy::kNever);
    ASSERT_TRUE(journal.ok());
    EventPtr event = MakeEvent(catalog, "EXIT_READING", 99, 99, "TAG");
    ASSERT_TRUE(journal.value()->AppendEvent("", *event).ok());
  }
  scan = ReadJournal(dir, 1);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan.value().truncated) << scan.value().truncation_reason;
  ASSERT_EQ(scan.value().records.size(), 10u);
  EXPECT_EQ(scan.value().records[9].timestamp, 99);
}

TEST(EventJournalTest, StaleEpochGarbageCollection) {
  std::string dir = FreshDir("gc");
  for (uint64_t epoch : {1u, 2u, 3u}) {
    auto journal = EventJournal::Open(dir, epoch, 0, 1 << 20,
                                      FsyncPolicy::kNever);
    ASSERT_TRUE(journal.ok());
  }
  RemoveStaleJournals(dir, 3);
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + SegmentFileName(1, 0)));
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + SegmentFileName(2, 0)));
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + SegmentFileName(3, 0)));
}

TEST(EventJournalTest, AckCursorRoundTripsAndCoalesces) {
  std::string dir = FreshDir("ack_cursor");
  {
    auto journal = EventJournal::Open(dir, 5, 0, 1 << 20, FsyncPolicy::kNever);
    ASSERT_TRUE(journal.ok());
    EventJournal& writer = *journal.value();
    writer.set_ack_commit_interval(4);

    // Three acks stay buffered: nothing hits the journal yet.
    ASSERT_TRUE(writer.AppendAckCursor(1, 0).ok());
    ASSERT_TRUE(writer.AppendAckCursor(2, 0).ok());
    ASSERT_TRUE(writer.AppendAckCursor(3, 1).ok());
    EXPECT_EQ(writer.pending_acks(), 3u);
    EXPECT_EQ(writer.records_written(), 0u);
    EXPECT_EQ(writer.ack_commits(), 0u);

    // The fourth ack crosses the interval: one coalesced record carrying
    // only the latest cumulative values.
    ASSERT_TRUE(writer.AppendAckCursor(4, 2).ok());
    EXPECT_EQ(writer.pending_acks(), 0u);
    EXPECT_EQ(writer.records_written(), 1u);
    EXPECT_EQ(writer.ack_commits(), 1u);

    // An explicit CommitAcks() flushes a partial batch...
    ASSERT_TRUE(writer.AppendAckCursor(6, 2).ok());
    ASSERT_TRUE(writer.CommitAcks().ok());
    EXPECT_EQ(writer.records_written(), 2u);
    EXPECT_EQ(writer.ack_commits(), 2u);
    // ...and is a no-op when the buffer is empty.
    ASSERT_TRUE(writer.CommitAcks().ok());
    EXPECT_EQ(writer.records_written(), 2u);

    // This last ack is still buffered when the journal is destroyed: the
    // destructor deliberately does NOT commit (that is the simulated
    // ack-to-fsync crash window), so it must not survive the scan below.
    ASSERT_TRUE(writer.AppendAckCursor(9, 3).ok());
    EXPECT_EQ(writer.pending_acks(), 1u);
  }

  auto scan = ReadJournal(dir, 5);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_FALSE(scan.value().truncated);
  ASSERT_EQ(scan.value().records.size(), 2u);
  EXPECT_EQ(scan.value().records[0].kind, JournalRecord::Kind::kAckCursor);
  EXPECT_EQ(scan.value().records[0].acked_runtime, 4u);
  EXPECT_EQ(scan.value().records[0].acked_serial, 2u);
  EXPECT_EQ(scan.value().records[1].kind, JournalRecord::Kind::kAckCursor);
  EXPECT_EQ(scan.value().records[1].acked_runtime, 6u);
  EXPECT_EQ(scan.value().records[1].acked_serial, 2u);
}

// --- snapshot + manifest ----------------------------------------------------

TEST(SnapshotTest, RoundTripsStateAndDatabase) {
  Catalog catalog = Catalog::RetailDemo();
  std::string dir = FreshDir("snapshot");

  db::Database database;
  auto table = database.CreateTable(
      "events", {{"TagId", ValueType::kString}, {"Timestamp", ValueType::kInt}});
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(table.value()->Insert({Value("TAG|x"), Value(int64_t{7})}).ok());

  SystemSnapshot snap;
  snap.snapshot_id = 2;
  snap.shard_count = 8;
  snap.partition_key = "TagId";
  snap.events_dispatched = 123;
  snap.delivered_runtime = 45;
  snap.delivered_serial = 6;
  snap.any_routed = true;
  snap.routed_stream = 1;
  snap.multi_routed = true;
  for (size_t i = 0; i < catalog.type_count(); ++i) {
    snap.catalog_types.push_back(catalog.schema(static_cast<EventTypeId>(i)).name());
  }
  snap.streams.push_back(SnapshotStream{0, "", 90, 110, 100});
  snap.streams.push_back(SnapshotStream{1, "sensors", 80, 15, 23});
  SnapshotQuery query;
  query.id = 4;
  query.runtime_hosted = true;
  query.options.push_predicates = false;
  query.name = "shop|lift";
  query.text = "EVENT SHELF_READING s\nRETURN s.TagId";
  snap.queries.push_back(query);
  snap.splits.push_back(SnapshotSplit{1, 1, Value("TAG|7"), "AreaId"});

  ASSERT_TRUE(WriteSnapshot(dir, snap, database).ok());
  auto manifest = ReadManifest(dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest.value(), 2u);

  db::Database restored_db;
  auto read = ReadSnapshot(dir, 2, &restored_db);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const SystemSnapshot& restored = read.value();
  EXPECT_EQ(restored.shard_count, 8);
  EXPECT_EQ(restored.partition_key, "TagId");
  EXPECT_EQ(restored.events_dispatched, 123u);
  EXPECT_EQ(restored.delivered_runtime, 45u);
  EXPECT_EQ(restored.delivered_serial, 6u);
  EXPECT_TRUE(restored.any_routed);
  EXPECT_EQ(restored.routed_stream, 1u);
  EXPECT_TRUE(restored.multi_routed);
  EXPECT_EQ(restored.catalog_types, snap.catalog_types);
  ASSERT_EQ(restored.streams.size(), 2u);
  EXPECT_EQ(restored.streams[1].name, "sensors");
  EXPECT_EQ(restored.streams[1].clock, 80);
  EXPECT_EQ(restored.streams[1].last_seq, 15u);
  EXPECT_EQ(restored.streams[1].events, 23u);
  ASSERT_EQ(restored.queries.size(), 1u);
  EXPECT_EQ(restored.queries[0].id, 4);
  EXPECT_TRUE(restored.queries[0].runtime_hosted);
  EXPECT_FALSE(restored.queries[0].archiving);
  EXPECT_FALSE(restored.queries[0].options.push_predicates);
  EXPECT_TRUE(restored.queries[0].options.push_window);
  EXPECT_EQ(restored.queries[0].name, "shop|lift");
  EXPECT_EQ(restored.queries[0].text, "EVENT SHELF_READING s\nRETURN s.TagId");
  ASSERT_EQ(restored.splits.size(), 1u);
  EXPECT_EQ(restored.splits[0].stream, 1u);
  EXPECT_EQ(restored.splits[0].mode, 1);
  EXPECT_EQ(restored.splits[0].key.AsString(), "TAG|7");
  EXPECT_EQ(restored.splits[0].secondary_attr, "AreaId");

  const db::Table* events = restored_db.GetTable("events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->row_count(), 1u);

  // A newer snapshot supersedes: manifest repoints, GC removes the old one.
  snap.snapshot_id = 3;
  ASSERT_TRUE(WriteSnapshot(dir, snap, database).ok());
  RemoveStaleSnapshots(dir, 3);
  EXPECT_EQ(ReadManifest(dir).value(), 3u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/snap-2"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/snap-3"));
}

TEST(SnapshotTest, EngineStateSectionsRoundTrip) {
  Catalog catalog = Catalog::RetailDemo();
  std::string dir = FreshDir("engine_sections");
  db::Database database;

  SystemSnapshot snap;
  snap.snapshot_id = 1;
  for (size_t i = 0; i < catalog.type_count(); ++i) {
    snap.catalog_types.push_back(catalog.schema(static_cast<EventTypeId>(i)).name());
  }
  // Payloads with framing-hostile bytes: '|', newlines, binary-ish data.
  snap.engine_state.push_back(
      EngineStateSection{"plan", "shard-0", 4, 1, "SS 1|2|3\nSI 0|7\n"});
  snap.engine_state.push_back(
      EngineStateSection{"engine", "broadcast", 0, 1, "EP 42\n"});
  snap.engine_state.push_back(EngineStateSection{
      "future-kind", "serial", 9, 3, std::string("\x01|\xff\nEND\n", 8)});

  ASSERT_TRUE(WriteSnapshot(dir, snap, database).ok());
  auto read = ReadSnapshot(dir, 1, nullptr);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().engine_state.size(), 3u);
  EXPECT_EQ(read.value().engine_state[0].kind, "plan");
  EXPECT_EQ(read.value().engine_state[0].host, "shard-0");
  EXPECT_EQ(read.value().engine_state[0].query, 4);
  EXPECT_EQ(read.value().engine_state[0].payload, "SS 1|2|3\nSI 0|7\n");
  EXPECT_EQ(read.value().engine_state[1].kind, "engine");
  EXPECT_EQ(read.value().engine_state[1].payload, "EP 42\n");
  // A section of unknown kind survives the read (skippable framing); the
  // consumer decides to ignore it.
  EXPECT_EQ(read.value().engine_state[2].kind, "future-kind");
  EXPECT_EQ(read.value().engine_state[2].version, 3u);
  EXPECT_EQ(read.value().engine_state[2].payload.size(), 8u);
}

TEST(SnapshotTest, CorruptOrTruncatedEngineStateSectionIsAHardError) {
  Catalog catalog = Catalog::RetailDemo();
  db::Database database;
  SystemSnapshot snap;
  snap.snapshot_id = 1;
  for (size_t i = 0; i < catalog.type_count(); ++i) {
    snap.catalog_types.push_back(catalog.schema(static_cast<EventTypeId>(i)).name());
  }
  snap.engine_state.push_back(
      EngineStateSection{"plan", "serial", 7, 1, "TS 5|0\nTA 0|5|D:2.5\n"});

  {
    // Flip one payload byte: the section's CRC must catch it, the error
    // must name the section, and ReadSnapshot must fail outright — no
    // partial restore material is handed to the caller.
    std::string dir = FreshDir("engine_corrupt");
    ASSERT_TRUE(WriteSnapshot(dir, snap, database).ok());
    std::string path = dir + "/snap-1/engine.sase";
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(-8, std::ios::end);  // inside the payload of the section
    file.put('X');
    file.close();
    auto read = ReadSnapshot(dir, 1, nullptr);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kParseError);
    EXPECT_NE(read.status().message().find("query #7"), std::string::npos)
        << read.status().ToString();
    EXPECT_NE(read.status().message().find("CRC"), std::string::npos)
        << read.status().ToString();
  }
  {
    // Truncate mid-payload: clean error, not garbage state.
    std::string dir = FreshDir("engine_truncated");
    ASSERT_TRUE(WriteSnapshot(dir, snap, database).ok());
    std::string path = dir + "/snap-1/engine.sase";
    auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 10);
    auto read = ReadSnapshot(dir, 1, nullptr);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kParseError);
    EXPECT_NE(read.status().message().find("truncated"), std::string::npos)
        << read.status().ToString();
  }
}

TEST(SnapshotTest, ManifestFormatNegotiation) {
  db::Database database;
  SystemSnapshot snap;
  snap.snapshot_id = 1;
  std::string dir = FreshDir("format");
  ASSERT_TRUE(WriteSnapshot(dir, snap, database).ok());

  // The writer stamps the current format; the reader accepts it.
  EXPECT_TRUE(ReadManifest(dir).ok());

  // A manifest claiming a future format is refused with a clear error
  // instead of misreading the directory.
  {
    std::ofstream out(dir + "/MANIFEST");
    out << "SASE-MANIFEST v1\nsnapshot 1\nformat 99\n";
  }
  auto manifest = ReadManifest(dir);
  ASSERT_FALSE(manifest.ok());
  EXPECT_EQ(manifest.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(manifest.status().message().find("format 99"), std::string::npos)
      << manifest.status().ToString();
}

TEST(SnapshotTest, OlderSnapshotFormatsAreRefused) {
  db::Database database;
  SystemSnapshot snap;
  snap.snapshot_id = 1;
  std::string dir = FreshDir("old_format");
  ASSERT_TRUE(WriteSnapshot(dir, snap, database).ok());

  // The reader reads one format: an older manifest is refused by name, and
  // so is a manifest from before the format line existed (format 1).
  {
    std::ofstream out(dir + "/MANIFEST");
    out << "SASE-MANIFEST v1\nsnapshot 1\nformat 4\n";
  }
  auto manifest = ReadManifest(dir);
  ASSERT_FALSE(manifest.ok());
  EXPECT_EQ(manifest.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(manifest.status().message().find("format 4"), std::string::npos)
      << manifest.status().ToString();
  {
    std::ofstream out(dir + "/MANIFEST");
    out << "SASE-MANIFEST v1\nsnapshot 1\n";
  }
  manifest = ReadManifest(dir);
  ASSERT_FALSE(manifest.ok());
  EXPECT_NE(manifest.status().message().find("format 1"), std::string::npos)
      << manifest.status().ToString();

  // A state file written by an older format is refused too, naming its
  // header.
  std::string state_path = dir + "/snap-1/state.sase";
  std::ifstream in(state_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::string text = buffer.str();
  std::string header = "SASE-CHECKPOINT v" + std::to_string(kSnapshotFormat);
  ASSERT_EQ(text.rfind(header, 0), 0u);
  text.replace(0, header.size(), "SASE-CHECKPOINT v4");
  {
    std::ofstream out(state_path);
    out << text;
  }
  auto read = ReadSnapshot(dir, 1, nullptr);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kParseError);
  EXPECT_NE(read.status().message().find("SASE-CHECKPOINT v4"),
            std::string::npos)
      << read.status().ToString();
}

TEST(SnapshotTest, AckedCursorRoundTrips) {
  db::Database database;
  SystemSnapshot snap;
  snap.snapshot_id = 2;
  snap.catalog_types.push_back("SHELF_READING");
  snap.delivered_runtime = 12;
  snap.delivered_serial = 5;
  snap.acked_runtime = 9;
  snap.acked_serial = 5;
  std::string dir = FreshDir("acked");
  ASSERT_TRUE(WriteSnapshot(dir, snap, database).ok());

  auto read = ReadSnapshot(dir, 2, nullptr);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().acked_runtime, 9u);
  EXPECT_EQ(read.value().acked_serial, 5u);
  EXPECT_EQ(read.value().delivered_runtime, 12u);
  EXPECT_EQ(read.value().delivered_serial, 5u);
}

TEST(SnapshotTest, MissingManifestIsNotFound) {
  std::string dir = FreshDir("nomanifest");
  auto manifest = ReadManifest(dir);
  EXPECT_FALSE(manifest.ok());
  EXPECT_EQ(manifest.status().code(), StatusCode::kNotFound);
}

// --- policy -----------------------------------------------------------------

TEST(CheckpointPolicyTest, IntervalAndSizeThresholds) {
  CheckpointConfig config;
  config.checkpoint_interval_events = 100;
  config.checkpoint_journal_bytes = 4096;
  CheckpointPolicy policy(config);

  EXPECT_EQ(policy.Evaluate({50, 0}), CheckpointDecision::kHold);
  EXPECT_EQ(policy.Evaluate({99, 0}), CheckpointDecision::kHold);
  EXPECT_EQ(policy.Evaluate({100, 0}), CheckpointDecision::kCheckpoint);
  // Between the decision and NoteCheckpoint the policy must not re-fire on
  // every event (the system is busy writing the snapshot).
  EXPECT_EQ(policy.Evaluate({101, 0}), CheckpointDecision::kHold);
  policy.NoteCheckpoint();
  EXPECT_EQ(policy.Evaluate({5, 0}), CheckpointDecision::kHold);
  // The size trigger fires independently of the event interval.
  EXPECT_EQ(policy.Evaluate({6, 5000}), CheckpointDecision::kCheckpoint);
  policy.NoteCheckpoint();
  EXPECT_EQ(policy.checks(), 6u);
  EXPECT_EQ(policy.decisions(), 2u);
  EXPECT_NE(policy.Describe().find("interval=100"), std::string::npos);
}

TEST(CheckpointPolicyTest, ManualOnlyNeverFires) {
  CheckpointPolicy policy(CheckpointConfig{});
  EXPECT_EQ(policy.Evaluate({1u << 20, 1u << 30}), CheckpointDecision::kHold);
  EXPECT_NE(policy.Describe().find("manual only"), std::string::npos);
}

// --- crc --------------------------------------------------------------------

TEST(Crc32Test, MatchesKnownVectorAndChains) {
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Incremental computation chains through the seed.
  uint32_t prefix = Crc32("12345", 5);
  EXPECT_EQ(Crc32("6789", 4, prefix), Crc32("123456789", 9));
  EXPECT_NE(Crc32("123456789", 9), Crc32("123456780", 9));
}

}  // namespace
}  // namespace checkpoint
}  // namespace sase
