#include "runtime/sharded_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/catalog.h"
#include "engine/query_engine.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "rfid/workload.h"
#include "runtime/event_batch.h"
#include "runtime/output_merger.h"
#include "runtime/partitioner.h"
#include "util/value_codec.h"

namespace sase {
namespace {

// --- SPSC ring -------------------------------------------------------------

TEST(SpscRingTest, OrderedTransferAcrossThreads) {
  SpscRing<int> ring(8);
  constexpr int kItems = 10000;
  std::vector<int> received;
  std::thread consumer([&] {
    int item = 0;
    while (ring.Pop(&item)) received.push_back(item);
  });
  for (int i = 0; i < kItems; ++i) ring.Push(int(i));
  ring.Close();
  consumer.join();
  ASSERT_EQ(received.size(), static_cast<size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

TEST(SpscRingTest, TryPushFailsWhenFullAndCloseDrains) {
  SpscRing<int> ring(2);  // capacity rounds to 2
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_FALSE(ring.TryPush(3));
  ring.Close();
  int out = 0;
  EXPECT_TRUE(ring.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(ring.Pop(&out));  // closed and drained
}

// --- Partitioner classification --------------------------------------------

class PartitionerTest : public ::testing::Test {
 protected:
  AnalyzedQuery Analyze(const std::string& text) {
    auto parsed = Parser::Parse(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    Analyzer analyzer(&catalog_, TimeConfig{});
    auto analyzed = analyzer.Analyze(std::move(parsed).value());
    EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    return std::move(analyzed).value();
  }

  bool Shardable(const std::string& text, PlanOptions options = {}) {
    return Partitioner::Shardable(Analyze(text), catalog_, "TagId", options);
  }

  Catalog catalog_ = Catalog::RetailDemo();
};

TEST_F(PartitionerTest, TagEquivalenceSequenceIsShardable) {
  EXPECT_TRUE(Shardable(
      "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
      "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 100"));
}

TEST_F(PartitionerTest, StatelessSingleEventQueryIsShardable) {
  EXPECT_TRUE(Shardable(
      "EVENT SHELF_READING s WHERE s.AreaId = 2 RETURN s.TagId"));
}

TEST_F(PartitionerTest, AggregateQueryIsNotShardable) {
  EXPECT_FALSE(Shardable("EVENT EXIT_READING e RETURN COUNT(*)"));
}

TEST_F(PartitionerTest, NonKeyEquivalenceIsNotShardable) {
  EXPECT_FALSE(Shardable(
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) "
      "WHERE x.AreaId = z.AreaId WITHIN 50"));
}

TEST_F(PartitionerTest, UnpartitionedNegationIsNotShardable) {
  // The negated component does not join the TagId equivalence class: any
  // counter reading suppresses, so every shard would need every event.
  EXPECT_FALSE(Shardable(
      "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
      "WHERE x.TagId = z.TagId WITHIN 100"));
}

TEST_F(PartitionerTest, DisabledPartitioningIsNotShardable) {
  PlanOptions options;
  options.use_partitioning = false;
  EXPECT_FALSE(Shardable(
      "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
      "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 100",
      options));
}

TEST_F(PartitionerTest, FromStreamQueryShardsLikeDefaultInput) {
  // Stream-aware classification: the input stream is irrelevant to
  // shardability — the same pattern shards whether it reads the default
  // input or a named FROM stream.
  EXPECT_TRUE(Shardable(
      "FROM sensors "
      "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
      "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 100"));
  EXPECT_TRUE(Shardable("FROM sensors EVENT SHELF_READING s RETURN s.TagId"));
  EXPECT_FALSE(Shardable("FROM sensors EVENT EXIT_READING e RETURN COUNT(*)"));
}

TEST_F(PartitionerTest, RouteKeepsPerStreamDispatchStamps) {
  Partitioner partitioner(&catalog_, "TagId", 2);
  StreamId def = partitioner.InternStream("");
  StreamId sensors = partitioner.InternStream("sensors");
  EXPECT_EQ(def, kDefaultStream);
  EXPECT_EQ(partitioner.InternStream("sensors"), sensors);  // stable

  EventBuilder b(catalog_, "SHELF_READING");
  auto event = b.Set("TagId", "TAG0").Set("AreaId", 1).Build(10, 0);
  ASSERT_TRUE(event.ok());
  int shard = partitioner.Route(sensors, *event.value());
  ASSERT_GE(shard, 0);
  ASSERT_LT(shard, 2);

  const auto& streams = partitioner.streams();
  ASSERT_EQ(streams.size(), 2u);
  EXPECT_EQ(streams[def].events, 0u);
  EXPECT_EQ(streams[sensors].name, "sensors");
  EXPECT_EQ(streams[sensors].events, 1u);
  EXPECT_EQ(streams[sensors].clock, 10);
  EXPECT_EQ(streams[sensors].per_shard[static_cast<size_t>(shard)], 1u);
}

TEST_F(PartitionerTest, RoutingIsDeterministicAndKeyStable) {
  Partitioner partitioner(&catalog_, "TagId", 4);
  SyntheticConfig config;
  config.seed = 11;
  config.event_count = 500;
  config.tag_count = 20;
  SyntheticStreamGenerator generator(&catalog_, config);
  auto events = generator.Generate();
  ASSERT_FALSE(events.empty());
  // Same tag -> same shard, regardless of event type.
  std::map<std::string, int> shard_of_tag;
  for (const auto& event : events) {
    const EventSchema& schema = catalog_.schema(event->type());
    AttrIndex tag = schema.FindAttribute("TagId");
    ASSERT_GE(tag, 0);
    int shard = partitioner.ShardFor(*event);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    std::string key = event->attribute(tag).ToString();
    auto [it, inserted] = shard_of_tag.emplace(key, shard);
    if (!inserted) EXPECT_EQ(it->second, shard) << "tag " << key;
  }
  EXPECT_GT(shard_of_tag.size(), 1u);
}

// --- Hot-key sketch and split routing ---------------------------------------

/// Reference space-saving sketch with the original O(capacity) eviction: a
/// full scan for the lowest-indexed minimum-count slot. The production
/// sketch's amortized-O(1) cold-queue must evict the exact same slots, so
/// the two must hold identical (key, count, error) contents after any
/// observation sequence.
struct NaiveSpaceSaving {
  struct Slot {
    std::string key;
    uint64_t count = 0;
    uint64_t error = 0;
  };
  std::vector<Slot> slots;

  void Observe(const std::string& key, size_t capacity) {
    for (Slot& slot : slots) {
      if (slot.key == key) {
        ++slot.count;
        return;
      }
    }
    if (slots.size() < capacity) {
      slots.push_back(Slot{key, 1, 0});
      return;
    }
    size_t coldest = 0;
    for (size_t i = 1; i < slots.size(); ++i) {
      if (slots[i].count < slots[coldest].count) coldest = i;
    }
    Slot& slot = slots[coldest];
    slot.error = slot.count;
    slot.count += 1;
    slot.key = key;
  }
};

TEST_F(PartitionerTest, HotKeySketchMatchesNaiveEviction) {
  constexpr size_t kCapacity = 8;
  Partitioner partitioner(&catalog_, "TagId", 4);
  partitioner.EnableHotKeyTracking(kCapacity);
  auto shelf_type = catalog_.FindType("SHELF_READING");
  ASSERT_TRUE(shelf_type.ok());
  AttrIndex tag_index =
      catalog_.schema(shelf_type.value()).FindAttribute("TagId");
  ASSERT_GE(tag_index, 0);
  NaiveSpaceSaving naive;
  // Skewed mixture: a few hot tags plus a long cold tail, far more distinct
  // keys than slots, so eviction (and its tie-breaking) runs constantly.
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<int> hot(0, 3);
  std::uniform_int_distribution<int> cold(0, 199);
  for (int i = 0; i < 6000; ++i) {
    std::string tag = pct(rng) < 60 ? "HOT" + std::to_string(hot(rng))
                                    : "COLD" + std::to_string(cold(rng));
    EventBuilder b(catalog_, "SHELF_READING");
    auto event = b.Set("TagId", tag).Set("AreaId", 1).Build(i, i);
    ASSERT_TRUE(event.ok());
    partitioner.Route(kDefaultStream, *event.value());
    naive.Observe(event.value()->attribute(tag_index).ToString(), kCapacity);
    if (i % 251 == 0 || i == 5999) {
      auto stats = partitioner.HotKeys(kDefaultStream);
      ASSERT_EQ(stats.size(), naive.slots.size());
      std::vector<std::tuple<std::string, uint64_t, uint64_t>> got, want;
      for (const auto& s : stats) {
        got.emplace_back(s.key.ToString(), s.count, s.error);
      }
      for (const auto& s : naive.slots) {
        want.emplace_back(s.key, s.count, s.error);
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "after " << (i + 1) << " observations";
    }
  }
  EXPECT_EQ(partitioner.keyed_events(kDefaultStream), 6000u);
}

TEST_F(PartitionerTest, SpreadSplitRoundRobinsAndUnsplitRestoresPin) {
  Partitioner partitioner(&catalog_, "TagId", 4);
  auto make = [&](const std::string& tag, int64_t seq) {
    EventBuilder b(catalog_, "SHELF_READING");
    auto event = b.Set("TagId", tag).Set("AreaId", 1).Build(seq, seq);
    EXPECT_TRUE(event.ok());
    return std::move(event).value();
  };
  EventPtr probe = make("HOT", 0);
  int pinned = partitioner.ShardFor(*probe);
  AttrIndex tag_index =
      catalog_.schema(probe->type()).FindAttribute("TagId");
  Value key = probe->attribute(tag_index);
  partitioner.Split(kDefaultStream, key, Partitioner::SplitMode::kSpread);
  EXPECT_TRUE(partitioner.IsSplit(kDefaultStream, key));
  EXPECT_EQ(partitioner.split_count(), 1u);
  // The split key cycles shards round-robin...
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(partitioner.ShardFor(kDefaultStream, *make("HOT", i)),
              static_cast<int>(i % 4));
  }
  // ...while other keys and the same key on other streams keep their pins.
  EXPECT_EQ(partitioner.ShardFor(kDefaultStream, *make("OTHER", 50)),
            partitioner.ShardFor(*make("OTHER", 51)));
  StreamId sensors = partitioner.InternStream("sensors");
  EXPECT_EQ(partitioner.ShardFor(sensors, *make("HOT", 99)), pinned);
  EXPECT_TRUE(partitioner.Unsplit(kDefaultStream, key));
  EXPECT_FALSE(partitioner.Unsplit(kDefaultStream, key));
  EXPECT_EQ(partitioner.split_count(), 0u);
  EXPECT_EQ(partitioner.ShardFor(kDefaultStream, *make("HOT", 100)), pinned);
}

TEST_F(PartitionerTest, SplitsOrderIsTotalAcrossValueTypes) {
  // int 7 and string "7" render identically via ToString; the checkpoint
  // order must still be a total one (type-tagged encoding), identical for
  // any insertion order — a run and its recovered twin write the same
  // SPLIT lines in the same sequence.
  std::vector<Value> keys = {Value(7), Value("7"), Value(true),
                             Value("TRUE")};
  auto splits_for = [&](const std::vector<size_t>& order) {
    Partitioner partitioner(&catalog_, "TagId", 4);
    for (size_t i : order) {
      partitioner.Split(kDefaultStream, keys[i],
                        Partitioner::SplitMode::kSpread);
    }
    std::vector<std::string> rendered;
    for (const Partitioner::SplitInfo& info : partitioner.Splits()) {
      rendered.push_back(EncodeValue(info.key));
    }
    return rendered;
  };
  std::vector<std::string> forward = splits_for({0, 1, 2, 3});
  ASSERT_EQ(forward.size(), 4u);
  EXPECT_TRUE(std::is_sorted(forward.begin(), forward.end()));
  EXPECT_EQ(forward, splits_for({3, 2, 1, 0}));
  EXPECT_EQ(forward, splits_for({2, 0, 3, 1}));
}

TEST_F(PartitionerTest, SecondarySplitPinsKeySecondaryPairs) {
  Partitioner partitioner(&catalog_, "TagId", 4);
  auto make_load = [&](const std::string& container, int64_t seq) {
    EventBuilder b(catalog_, "LOAD_READING");
    auto event = b.Set("TagId", "HOT")
                     .Set("AreaId", 1)
                     .Set("ContainerId", container)
                     .Build(seq, seq);
    EXPECT_TRUE(event.ok());
    return std::move(event).value();
  };
  EventPtr probe = make_load("C0", 0);
  int pinned = partitioner.ShardFor(*probe);
  Value key = probe->attribute(
      catalog_.schema(probe->type()).FindAttribute("TagId"));
  partitioner.Split(kDefaultStream, key, Partitioner::SplitMode::kSecondary,
                    "ContainerId");
  // Each (key, secondary) pair pins to one stable shard, and the sub-hash
  // spreads the key over more than one shard.
  std::map<std::string, int> shard_of_container;
  for (int round = 0; round < 3; ++round) {
    for (int c = 0; c < 8; ++c) {
      std::string container = "C" + std::to_string(c);
      int shard = partitioner.ShardFor(
          kDefaultStream, *make_load(container, round * 8 + c));
      ASSERT_GE(shard, 0);
      ASSERT_LT(shard, 4);
      auto [it, inserted] = shard_of_container.emplace(container, shard);
      if (!inserted) EXPECT_EQ(it->second, shard) << "container " << container;
    }
  }
  std::set<int> shards;
  for (const auto& [container, shard] : shard_of_container) {
    shards.insert(shard);
  }
  EXPECT_GT(shards.size(), 1u);
  // A type lacking the secondary attribute keeps the primary key-hash pin.
  EventBuilder b(catalog_, "SHELF_READING");
  auto shelf = b.Set("TagId", "HOT").Set("AreaId", 1).Build(100, 100);
  ASSERT_TRUE(shelf.ok());
  EXPECT_EQ(partitioner.ShardFor(kDefaultStream, *shelf.value()), pinned);
}

// --- Golden determinism -----------------------------------------------------

/// The mixed continuous-query workload of the golden test: key-partitioned
/// patterns (middle and tail negation), a stateless projection, a running
/// aggregate (broadcast), and a non-key pattern (broadcast).
const char* kGoldenQueries[] = {
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
    "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 120",
    "EVENT SEQ(SHELF_READING x, COUNTER_READING y, !(EXIT_READING z)) "
    "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 60 "
    "RETURN x.TagId, x.Timestamp AS shelf_ts, y.Timestamp AS counter_ts",
    "EVENT SHELF_READING s WHERE s.AreaId = 2 RETURN s.TagId, s.AreaId",
    "EVENT EXIT_READING e RETURN COUNT(*) AS exits",
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) "
    "WHERE x.AreaId = z.AreaId WITHIN 40",
};

std::vector<EventPtr> GoldenTrace(const Catalog& catalog) {
  SyntheticConfig config;
  config.seed = 7;
  config.event_count = 4000;
  config.tag_count = 60;
  config.area_count = 4;
  SyntheticStreamGenerator generator(&catalog, config);
  return generator.Generate();
}

/// Runs the golden workload through a serial QueryEngine; output lines are
/// "q<index>|<record>" in emission order.
std::vector<std::string> RunSerial(const Catalog& catalog,
                                   const std::vector<EventPtr>& trace) {
  std::vector<std::string> lines;
  QueryEngine engine(&catalog);
  for (size_t q = 0; q < std::size(kGoldenQueries); ++q) {
    auto id = engine.Register(kGoldenQueries[q],
                              [&lines, q](const OutputRecord& record) {
                                lines.push_back("q" + std::to_string(q) + "|" +
                                                record.ToString());
                              });
    EXPECT_TRUE(id.ok()) << id.status().ToString();
  }
  for (const auto& event : trace) engine.OnEvent(event);
  engine.OnFlush();
  return lines;
}

std::vector<std::string> RunSharded(const Catalog& catalog,
                                    const std::vector<EventPtr>& trace,
                                    int shards, size_t merge_interval) {
  std::vector<std::string> lines;
  RuntimeConfig config;
  config.shard_count = shards;
  config.merge_interval = merge_interval;
  ShardedRuntime runtime(&catalog, config);
  for (size_t q = 0; q < std::size(kGoldenQueries); ++q) {
    auto id = runtime.Register(kGoldenQueries[q],
                               [&lines, q](const OutputRecord& record) {
                                 lines.push_back("q" + std::to_string(q) + "|" +
                                                 record.ToString());
                               });
    EXPECT_TRUE(id.ok()) << id.status().ToString();
  }
  // The pattern queries shard; aggregate and non-key pattern do not.
  EXPECT_TRUE(runtime.IsSharded(1));
  EXPECT_TRUE(runtime.IsSharded(2));
  EXPECT_TRUE(runtime.IsSharded(3));
  EXPECT_FALSE(runtime.IsSharded(4));
  EXPECT_FALSE(runtime.IsSharded(5));
  for (const auto& event : trace) runtime.OnEvent(event);
  runtime.OnFlush();
  return lines;
}

TEST(ShardedRuntimeGoldenTest, ByteIdenticalToSerialAcrossShardCounts) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = GoldenTrace(catalog);
  auto serial = RunSerial(catalog, trace);
  // The workload must be non-trivial for the comparison to mean anything.
  ASSERT_GT(serial.size(), 100u);

  for (int shards : {1, 2, 8}) {
    auto sharded = RunSharded(catalog, trace, shards, /*merge_interval=*/4096);
    EXPECT_EQ(serial, sharded) << "shards=" << shards;
  }
}

TEST(ShardedRuntimeGoldenTest, IncrementalMergeMatchesFlushOnlyMerge) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = GoldenTrace(catalog);
  auto serial = RunSerial(catalog, trace);
  // Aggressive incremental merging (every 64 events) must not change the
  // delivered order.
  auto sharded = RunSharded(catalog, trace, /*shards=*/4, /*merge_interval=*/64);
  EXPECT_EQ(serial, sharded);
}

// --- Watermarks & incremental delivery --------------------------------------

TEST(ShardedRuntimeTest, WatermarkReleasesTailNegationOnQuietShard) {
  Catalog catalog = Catalog::RetailDemo();
  RuntimeConfig config;
  config.shard_count = 4;
  config.merge_interval = 4;
  ShardedRuntime runtime(&catalog, config);

  int delivered = 0;
  auto id = runtime.Register(
      "EVENT SEQ(SHELF_READING x, !(EXIT_READING y)) "
      "WHERE x.TagId = y.TagId WITHIN 5 RETURN x.TagId",
      [&delivered](const OutputRecord&) { ++delivered; });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(runtime.IsSharded(id.value()));

  // One match for TAG0 at ts 1, deferred until stream time passes 6. Then
  // only other tags' events arrive: TAG0's shard may never see another event
  // of its partition, so release must come from the broadcast watermark.
  EventBuilder b0(catalog, "SHELF_READING");
  auto first = b0.Set("TagId", "TAG0").Set("AreaId", 1).Build(1, 0);
  ASSERT_TRUE(first.ok());
  runtime.OnEvent(first.value());
  for (int i = 1; i <= 60; ++i) {
    EventBuilder b(catalog, "SHELF_READING");
    auto e = b.Set("TagId", "TAG" + std::to_string(1 + i % 8))
                 .Set("AreaId", 1)
                 .Build(1 + i, static_cast<SequenceNumber>(i));
    ASSERT_TRUE(e.ok());
    runtime.OnEvent(e.value());
  }
  runtime.WaitIdle();
  EXPECT_GE(delivered, 1) << "deferred match not released before flush";
  runtime.OnFlush();
  // Flush may only add the still-open tails (later tags), never lose output.
  EXPECT_GE(delivered, 50);
}

TEST(ShardedRuntimeTest, ZeroIntervalIsClampedToOneEventRounds) {
  // An interval of 0 is clamped to 1, so every event ends a round. The 2-slot
  // rings make the delivery certain: the fourth round's push waits until the
  // first round's batch is done, and that round then delivers its record.
  Catalog catalog = Catalog::RetailDemo();
  RuntimeConfig config;
  config.shard_count = 2;
  config.queue_capacity = 2;
  config.merge_interval = 0;
  ShardedRuntime runtime(&catalog, config);
  int count = 0;
  ASSERT_TRUE(runtime
                  .Register("EVENT SHELF_READING s RETURN s.TagId",
                            [&count](const OutputRecord&) { ++count; })
                  .ok());
  for (int i = 0; i < 8; ++i) {
    EventBuilder b(catalog, "SHELF_READING");
    auto e = b.Set("TagId", "T").Set("AreaId", 0).Build(1 + i, i);
    ASSERT_TRUE(e.ok());
    runtime.OnEvent(e.value());
  }
  EXPECT_GE(count, 1) << "no round delivered before flush";
  runtime.OnFlush();
  EXPECT_EQ(count, 8);
}

// --- Delivery triggers -------------------------------------------------------

/// The `i`-th shelf reading of a one-query stream: tag TAG<i % 16>, ts i + 1.
EventPtr ShelfEvent(const Catalog& catalog, uint64_t i) {
  EventBuilder b(catalog, "SHELF_READING");
  auto e = b.Set("TagId", "TAG" + std::to_string(i % 16))
               .Set("AreaId", int64_t{1})
               .Build(static_cast<Timestamp>(i + 1),
                      static_cast<SequenceNumber>(i));
  EXPECT_TRUE(e.ok());
  return e.value();
}

TEST(ShardedRuntimeDeliveryTest, DispatchAfterAnIdleGapEndsTheRound) {
  // A burst far shorter than merge_interval, a pause, then one event: that
  // dispatch ends the round, so the burst reaches the workers now rather
  // than merge_interval events later, and its records go out as soon as the
  // workers ack — long before the next merge_interval boundary. The later
  // dispatches only give the dispatcher a chance to see the acks.
  Catalog catalog = Catalog::RetailDemo();
  RuntimeConfig config;
  config.shard_count = 2;
  config.merge_interval = 1u << 20;
  ShardedRuntime runtime(&catalog, config);
  uint64_t delivered = 0;
  ASSERT_TRUE(runtime
                  .Register("EVENT SHELF_READING s RETURN s.TagId",
                            [&delivered](const OutputRecord&) { ++delivered; })
                  .ok());
  constexpr uint64_t kBurst = 32;
  uint64_t next = 0;
  for (; next < kBurst; ++next) runtime.OnEvent(ShelfEvent(catalog, next));
  EXPECT_EQ(delivered, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  runtime.OnEvent(ShelfEvent(catalog, next++));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (delivered < kBurst && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    runtime.OnEvent(ShelfEvent(catalog, next++));
  }
  EXPECT_GE(delivered, kBurst)
      << "the burst waited for the merge_interval boundary";
  EXPECT_LT(next, config.merge_interval);
  runtime.OnFlush();
  EXPECT_EQ(delivered, next);
}

TEST(ShardedRuntimeDeliveryTest, RecordsGoOutOnTheDispatchThatSeesTheAck) {
  // One full round, a pause far longer than the worker needs to ack it, then
  // one event. Nothing was dispatched since the round ended, so that event
  // ends no round; it delivers the first round's records because it sees
  // the ack, not at the next merge_interval boundary. One shard, so its ack
  // certifies the whole round (with more, the round's last event is
  // certified only once every shard has claimed past it).
  Catalog catalog = Catalog::RetailDemo();
  RuntimeConfig config;
  config.shard_count = 1;
  config.merge_interval = 256;
  ShardedRuntime runtime(&catalog, config);
  uint64_t delivered = 0;
  ASSERT_TRUE(runtime
                  .Register("EVENT SHELF_READING s RETURN s.TagId",
                            [&delivered](const OutputRecord&) { ++delivered; })
                  .ok());
  uint64_t next = 0;
  for (; next < config.merge_interval; ++next) {
    runtime.OnEvent(ShelfEvent(catalog, next));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  runtime.OnEvent(ShelfEvent(catalog, next++));
  EXPECT_EQ(delivered, config.merge_interval)
      << "the acknowledged round waited for the next merge_interval boundary";
  runtime.OnFlush();
  EXPECT_EQ(delivered, next);
}

// --- Dispatch-log compaction (memory bound) ----------------------------------

TEST(DispatchLogCompactionTest, LogStaysBoundedOnLongStream) {
  // The acceptance bound: after N >> window events the live dispatch log is
  // O(shards x in-flight window) — backpressured batches plus a few merge
  // intervals — not O(N).
  Catalog catalog = Catalog::RetailDemo();
  RuntimeConfig config;
  config.shard_count = 4;
  config.queue_capacity = 16;
  config.merge_interval = 32;
  config.log_compact_min = 64;
  ShardedRuntime runtime(&catalog, config);

  uint64_t outputs = 0;
  auto id = runtime.Register(
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) "
      "WHERE x.TagId = z.TagId WITHIN 20 RETURN x.TagId",
      [&outputs](const OutputRecord&) { ++outputs; });
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  constexpr uint64_t kEvents = 50000;
  for (uint64_t i = 0; i < kEvents; ++i) {
    const char* type = (i % 7 == 6) ? "EXIT_READING" : "SHELF_READING";
    EventBuilder b(catalog, type);
    auto e = b.Set("TagId", "TAG" + std::to_string(i % 40))
                 .Set("AreaId", static_cast<int64_t>(i % 4))
                 .Build(static_cast<Timestamp>(1 + i / 4),
                        static_cast<SequenceNumber>(i));
    ASSERT_TRUE(e.ok());
    runtime.OnEvent(e.value());
  }
  ASSERT_EQ(runtime.events_dispatched(), kEvents);

  // In-flight bound: every worker can hold queue_capacity batches plus the
  // dispatcher's pending one, a batch holds at most one round of events,
  // and merges (hence compactions) run every round.
  size_t in_flight = static_cast<size_t>(config.shard_count + 1) *
                     (config.queue_capacity + 1) * config.merge_interval;
  size_t bound = in_flight + 8 * config.merge_interval + config.log_compact_min;
  EXPECT_LE(runtime.peak_dispatch_log_len(), bound);
  EXPECT_LT(runtime.peak_dispatch_log_len(), kEvents / 10);
  EXPECT_GT(runtime.log_compactions(), 0u);

  runtime.WaitIdle();
  // Quiescent: the whole log is below the watermark and reclaimed.
  EXPECT_LE(runtime.dispatch_log_len(), config.log_compact_min);
  EXPECT_EQ(runtime.log_entries_compacted() + runtime.dispatch_log_len(),
            kEvents);
  runtime.OnFlush();
  EXPECT_GT(outputs, 0u);
  EXPECT_EQ(runtime.dispatch_log_len(), 0u);
}

TEST(DispatchLogCompactionTest, IdleShardDoesNotBlockCompaction) {
  // All traffic lands on one shard (single tag); the rounds' clock batches
  // must advance the idle shards' merge progress so the watermark — and
  // with it compaction — keeps moving.
  Catalog catalog = Catalog::RetailDemo();
  RuntimeConfig config;
  config.shard_count = 8;
  config.merge_interval = 16;
  config.log_compact_min = 64;
  ShardedRuntime runtime(&catalog, config);

  uint64_t outputs = 0;
  auto id = runtime.Register(
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) "
      "WHERE x.TagId = z.TagId WITHIN 10 RETURN x.TagId",
      [&outputs](const OutputRecord&) { ++outputs; });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(runtime.IsSharded(id.value()));

  constexpr uint64_t kEvents = 20000;
  for (uint64_t i = 0; i < kEvents; ++i) {
    EventBuilder b(catalog, i % 5 == 4 ? "EXIT_READING" : "SHELF_READING");
    auto e = b.Set("TagId", "LONER")
                 .Set("AreaId", int64_t{1})
                 .Build(static_cast<Timestamp>(1 + i / 2),
                        static_cast<SequenceNumber>(i));
    ASSERT_TRUE(e.ok());
    runtime.OnEvent(e.value());
  }
  EXPECT_GT(runtime.log_compactions(), 0u);
  EXPECT_LT(runtime.peak_dispatch_log_len(), kEvents / 4);
  runtime.OnFlush();
  EXPECT_GT(outputs, 0u);
}

TEST(DispatchLogCompactionTest, CompactionRacesTailNegationDeferralRelease) {
  // Tail-negation deferrals resolve their trigger (first event past the
  // release window) against the dispatch log; aggressive compaction must
  // never truncate an entry a parked deferral still needs. Byte-identical
  // output vs serial is the proof.
  Catalog catalog = Catalog::RetailDemo();
  auto trace = GoldenTrace(catalog);
  const char* kQuery =
      "EVENT SEQ(SHELF_READING x, !(EXIT_READING y)) "
      "WHERE x.TagId = y.TagId WITHIN 30 RETURN x.TagId, x.Timestamp AS t";

  std::vector<std::string> serial;
  {
    QueryEngine engine(&catalog);
    ASSERT_TRUE(engine
                    .Register(kQuery,
                              [&serial](const OutputRecord& r) {
                                serial.push_back(r.ToString());
                              })
                    .ok());
    for (const auto& event : trace) engine.OnEvent(event);
    engine.OnFlush();
  }
  ASSERT_GT(serial.size(), 50u);

  std::vector<std::string> sharded;
  RuntimeConfig config;
  config.shard_count = 4;
  config.merge_interval = 4;  // merge + compact as often as possible
  config.log_compact_min = 16;
  ShardedRuntime runtime(&catalog, config);
  ASSERT_TRUE(runtime
                  .Register(kQuery,
                            [&sharded](const OutputRecord& r) {
                              sharded.push_back(r.ToString());
                            })
                  .ok());
  for (const auto& event : trace) runtime.OnEvent(event);
  runtime.OnFlush();
  EXPECT_EQ(serial, sharded);
  EXPECT_GT(runtime.log_compactions(), 0u);
}

// --- Registration lifecycle --------------------------------------------------

TEST(ShardedRuntimeTest, UnregisterStopsDelivery) {
  Catalog catalog = Catalog::RetailDemo();
  RuntimeConfig config;
  config.shard_count = 2;
  config.merge_interval = 1;
  ShardedRuntime runtime(&catalog, config);
  int count = 0;
  auto id = runtime.Register("EVENT SHELF_READING s RETURN s.TagId",
                             [&count](const OutputRecord&) { ++count; });
  ASSERT_TRUE(id.ok());

  EventBuilder b(catalog, "SHELF_READING");
  auto e = b.Set("TagId", "T").Set("AreaId", 0).Build(1, 0);
  ASSERT_TRUE(e.ok());
  runtime.OnEvent(e.value());
  runtime.WaitIdle();
  EXPECT_EQ(count, 1);

  ASSERT_TRUE(runtime.Unregister(id.value()).ok());
  EXPECT_FALSE(runtime.Unregister(id.value()).ok());
  EventBuilder b2(catalog, "SHELF_READING");
  auto e2 = b2.Set("TagId", "T").Set("AreaId", 0).Build(2, 1);
  ASSERT_TRUE(e2.ok());
  runtime.OnEvent(e2.value());
  runtime.OnFlush();
  EXPECT_EQ(count, 1);
}

// --- Named FROM streams ------------------------------------------------------

/// The golden workload rewritten against a named stream: key-partitioned
/// patterns (middle and tail negation), a stateless projection, and a
/// broadcast aggregate, all reading `FROM sensors`.
const char* kFromStreamQueries[] = {
    "FROM sensors "
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
    "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 120",
    "FROM sensors "
    "EVENT SEQ(SHELF_READING x, COUNTER_READING y, !(EXIT_READING z)) "
    "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 60 "
    "RETURN x.TagId, x.Timestamp AS shelf_ts",
    "FROM sensors EVENT SHELF_READING s WHERE s.AreaId = 2 RETURN s.TagId",
    "FROM sensors EVENT EXIT_READING e RETURN COUNT(*) AS exits",
};

TEST(ShardedRuntimeFromStreamTest, ByteIdenticalToSerialAcrossShardCounts) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = GoldenTrace(catalog);

  // Serial reference: the same engine entry point the runtime mirrors
  // (OnStreamEvent), fed in identical order.
  std::vector<std::string> serial;
  {
    QueryEngine engine(&catalog);
    for (size_t q = 0; q < std::size(kFromStreamQueries); ++q) {
      auto id = engine.Register(kFromStreamQueries[q],
                                [&serial, q](const OutputRecord& record) {
                                  serial.push_back("q" + std::to_string(q) +
                                                   "|" + record.ToString());
                                });
      ASSERT_TRUE(id.ok()) << id.status().ToString();
    }
    for (const auto& event : trace) engine.OnStreamEvent("sensors", event);
    engine.OnFlush();
  }
  ASSERT_GT(serial.size(), 50u);

  for (int shards : {2, 8}) {
    std::vector<std::string> sharded;
    RuntimeConfig config;
    config.shard_count = shards;
    config.merge_interval = 512;
    config.log_compact_min = 128;
    ShardedRuntime runtime(&catalog, config);
    for (size_t q = 0; q < std::size(kFromStreamQueries); ++q) {
      auto id = runtime.Register(kFromStreamQueries[q],
                                 [&sharded, q](const OutputRecord& record) {
                                   sharded.push_back("q" + std::to_string(q) +
                                                     "|" + record.ToString());
                                 });
      ASSERT_TRUE(id.ok()) << id.status().ToString();
    }
    // Patterns and the projection shard; the aggregate is broadcast.
    EXPECT_TRUE(runtime.IsSharded(1));
    EXPECT_TRUE(runtime.IsSharded(2));
    EXPECT_TRUE(runtime.IsSharded(3));
    EXPECT_FALSE(runtime.IsSharded(4));
    // Mixed-case feed: stream names are case-insensitive end to end.
    for (const auto& event : trace) runtime.OnStreamEvent("Sensors", event);
    runtime.OnFlush();
    EXPECT_EQ(serial, sharded) << "shards=" << shards;
  }
}

TEST(ShardedRuntimeFromStreamTest, MixedStreamsInterleaveInDispatchOrder) {
  // One query on the default input, one on a named stream, events
  // interleaved: merged output must reproduce the exact serial interleaving
  // (the order of the OnEvent/OnStreamEvent calls), including incremental
  // merges in multi-stream mode.
  Catalog catalog = Catalog::RetailDemo();
  auto trace = GoldenTrace(catalog);
  const char* kDefaultQuery =
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) "
      "WHERE x.TagId = z.TagId WITHIN 80 RETURN x.TagId, z.Timestamp AS t";
  const char* kNamedQuery =
      "FROM belt EVENT SEQ(SHELF_READING x, !(EXIT_READING y)) "
      "WHERE x.TagId = y.TagId WITHIN 40 RETURN x.TagId";

  auto feed = [&](QueryEngine* engine, ShardedRuntime* runtime) {
    // Even positions -> default input, odd -> named stream. Each stream
    // sees strictly increasing (if sparse) seqs, exactly what independent
    // sources produce.
    for (size_t i = 0; i < trace.size(); ++i) {
      const EventPtr& event = trace[i];
      if (i % 2 == 0) {
        if (engine != nullptr) engine->OnEvent(event);
        if (runtime != nullptr) runtime->OnEvent(event);
      } else {
        if (engine != nullptr) engine->OnStreamEvent("belt", event);
        if (runtime != nullptr) runtime->OnStreamEvent("belt", event);
      }
    }
  };

  std::vector<std::string> serial;
  {
    QueryEngine engine(&catalog);
    ASSERT_TRUE(engine
                    .Register(kDefaultQuery,
                              [&serial](const OutputRecord& r) {
                                serial.push_back("d|" + r.ToString());
                              })
                    .ok());
    ASSERT_TRUE(engine
                    .Register(kNamedQuery,
                              [&serial](const OutputRecord& r) {
                                serial.push_back("n|" + r.ToString());
                              })
                    .ok());
    feed(&engine, nullptr);
    engine.OnFlush();
  }
  ASSERT_GT(serial.size(), 20u);

  for (int shards : {2, 8}) {
    std::vector<std::string> sharded;
    RuntimeConfig config;
    config.shard_count = shards;
    config.merge_interval = 256;
    config.log_compact_min = 64;
    ShardedRuntime runtime(&catalog, config);
    ASSERT_TRUE(runtime
                    .Register(kDefaultQuery,
                              [&sharded](const OutputRecord& r) {
                                sharded.push_back("d|" + r.ToString());
                              })
                    .ok());
    ASSERT_TRUE(runtime
                    .Register(kNamedQuery,
                              [&sharded](const OutputRecord& r) {
                                sharded.push_back("n|" + r.ToString());
                              })
                    .ok());
    feed(nullptr, &runtime);
    runtime.OnFlush();
    EXPECT_EQ(serial, sharded) << "shards=" << shards;
  }
}

// --- Resize --------------------------------------------------------------------

/// Feeds `trace` interleaved across the default input and a named stream
/// (even positions -> default, odd -> "belt"), resizing the runtime at the
/// given positions when `runtime` is non-null.
void FeedInterleaved(const std::vector<EventPtr>& trace, QueryEngine* engine,
                     ShardedRuntime* runtime,
                     const std::map<size_t, int>& resizes_at = {}) {
  for (size_t i = 0; i < trace.size(); ++i) {
    if (runtime != nullptr) {
      auto it = resizes_at.find(i);
      if (it != resizes_at.end()) {
        ASSERT_TRUE(runtime->Resize(it->second).ok()) << "at event " << i;
        ASSERT_EQ(runtime->shard_count(), it->second);
      }
    }
    const EventPtr& event = trace[i];
    if (i % 2 == 0) {
      if (engine != nullptr) engine->OnEvent(event);
      if (runtime != nullptr) runtime->OnEvent(event);
    } else {
      if (engine != nullptr) engine->OnStreamEvent("belt", event);
      if (runtime != nullptr) runtime->OnStreamEvent("belt", event);
    }
  }
}

/// Interleaved-stream workload for the resize golden tests: key-partitioned
/// patterns with middle and tail negation on both inputs, so deferred
/// releases and partial matches straddle every resize point.
const char* kResizeDefaultQueries[] = {
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
    "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 120",
    "EVENT SEQ(SHELF_READING x, !(EXIT_READING y)) "
    "WHERE x.TagId = y.TagId WITHIN 30 RETURN x.TagId, x.Timestamp AS t",
    "EVENT SHELF_READING s WHERE s.AreaId = 2 RETURN s.TagId",
};
const char* kResizeNamedQueries[] = {
    "FROM belt EVENT SEQ(SHELF_READING x, !(EXIT_READING y)) "
    "WHERE x.TagId = y.TagId WITHIN 40 RETURN x.TagId",
    "FROM belt EVENT SEQ(SHELF_READING x, EXIT_READING z) "
    "WHERE x.TagId = z.TagId WITHIN 80 RETURN x.TagId, z.Timestamp AS t",
    "FROM belt EVENT EXIT_READING e RETURN COUNT(*) AS exits",  // broadcast
};

template <typename Host>
void RegisterResizeWorkload(Host* host, std::vector<std::string>* lines) {
  for (size_t q = 0; q < std::size(kResizeDefaultQueries); ++q) {
    auto id = host->Register(kResizeDefaultQueries[q],
                             [lines, q](const OutputRecord& record) {
                               lines->push_back("d" + std::to_string(q) + "|" +
                                                record.ToString());
                             });
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }
  for (size_t q = 0; q < std::size(kResizeNamedQueries); ++q) {
    auto id = host->Register(kResizeNamedQueries[q],
                             [lines, q](const OutputRecord& record) {
                               lines->push_back("n" + std::to_string(q) + "|" +
                                                record.ToString());
                             });
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }
}

TEST(ShardedRuntimeResizeTest, GoldenByteIdenticalAcrossGrowAndShrink) {
  // The acceptance gauntlet: grow 1->2->8, then shrink 8->3, mid-stream,
  // with interleaved default+named traffic and tail-negation deferrals
  // parked across every resize point. Output must equal the serial engine's
  // byte for byte.
  Catalog catalog = Catalog::RetailDemo();
  auto trace = GoldenTrace(catalog);

  std::vector<std::string> serial;
  {
    QueryEngine engine(&catalog);
    RegisterResizeWorkload(&engine, &serial);
    FeedInterleaved(trace, &engine, nullptr);
    engine.OnFlush();
  }
  ASSERT_GT(serial.size(), 100u);

  std::vector<std::string> sharded;
  RuntimeConfig config;
  config.shard_count = 1;
  config.merge_interval = 256;
  config.log_compact_min = 64;
  ShardedRuntime runtime(&catalog, config);
  RegisterResizeWorkload(&runtime, &sharded);
  FeedInterleaved(trace, nullptr, &runtime,
                  {{1000, 2}, {2000, 8}, {3000, 3}});
  runtime.OnFlush();
  EXPECT_EQ(serial, sharded);
  EXPECT_EQ(runtime.resize_count(), 3u);
  EXPECT_EQ(runtime.grow_count(), 2u);
  EXPECT_EQ(runtime.shrink_count(), 1u);
  auto stats = runtime.FullStats();
  EXPECT_EQ(stats.shard_count, 3);
  EXPECT_EQ(stats.resizes, 3u);
  EXPECT_EQ(stats.grows, 2u);
  EXPECT_EQ(stats.shrinks, 1u);
  // Fleet engine counters are continuous across resizes (retired shard
  // engines' counters are carried over) and the hand-off processes no
  // event twice: 2000 default events to one shard each + 2000 belt events
  // to one shard each + 2000 belt events to the broadcast worker (the
  // COUNT query).
  EXPECT_EQ(stats.engine.events_processed, 6000u);
}

TEST(ShardedRuntimeResizeTest, DeferralStraddlingResizeReleasesExactlyOnce) {
  // Minimal deterministic straddle: one tail-negation deferral is parked,
  // the runtime resizes, and the release trigger arrives only afterwards.
  // The record must surface exactly once, in serial position.
  Catalog catalog = Catalog::RetailDemo();
  const char* kQuery =
      "EVENT SEQ(SHELF_READING x, !(EXIT_READING y)) "
      "WHERE x.TagId = y.TagId WITHIN 10 RETURN x.TagId";

  auto feed = [&](QueryEngine* engine, ShardedRuntime* runtime) {
    SequenceNumber seq = 0;
    auto emit = [&](const char* type, const std::string& tag, Timestamp ts) {
      EventBuilder b(catalog, type);
      auto e = b.Set("TagId", tag).Set("AreaId", 1).Build(ts, seq++);
      ASSERT_TRUE(e.ok());
      if (engine != nullptr) engine->OnEvent(e.value());
      if (runtime != nullptr) runtime->OnEvent(e.value());
    };
    emit("SHELF_READING", "TAG0", 1);  // deferral parked until ts > 11
    for (int i = 0; i < 8; ++i) {
      emit("SHELF_READING", "TAG" + std::to_string(1 + i), 2 + i);
    }
    if (runtime != nullptr) {
      ASSERT_TRUE(runtime->Resize(5).ok());  // deferral straddles this
    }
    emit("EXIT_READING", "TAG3", 10);  // suppresses TAG3's own deferral
    emit("SHELF_READING", "TAG9", 12);  // first event past TAG0's window
    emit("SHELF_READING", "TAG9", 13);
  };

  std::vector<std::string> serial;
  {
    QueryEngine engine(&catalog);
    ASSERT_TRUE(engine
                    .Register(kQuery,
                              [&serial](const OutputRecord& r) {
                                serial.push_back(r.ToString());
                              })
                    .ok());
    feed(&engine, nullptr);
    engine.OnFlush();
  }

  std::vector<std::string> sharded;
  RuntimeConfig config;
  config.shard_count = 2;
  config.merge_interval = 2;
  config.log_compact_min = 1;
  ShardedRuntime runtime(&catalog, config);
  ASSERT_TRUE(runtime
                  .Register(kQuery,
                            [&sharded](const OutputRecord& r) {
                              sharded.push_back(r.ToString());
                            })
                  .ok());
  feed(nullptr, &runtime);
  runtime.OnFlush();
  EXPECT_EQ(serial, sharded);
  EXPECT_EQ(runtime.resize_count(), 1u);
}

TEST(ShardedRuntimeResizeTest, RegistrationPointsSurviveResize) {
  // A query registered mid-stream must not see pre-registration events
  // after a resize. Dedicated plans start empty at registration, so only
  // post-registration state exists to hand off. With scan sharing the late
  // query joins a group that already scanned the pre-registration event:
  // its join gate must move with the state, while the early member keeps
  // matching against that event.
  Catalog catalog = Catalog::RetailDemo();
  const char* kEarlyQuery =
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) "
      "WHERE x.TagId = z.TagId WITHIN 100 RETURN x.TagId";
  const char* kQuery =
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) "
      "WHERE x.TagId = z.TagId WITHIN 100 RETURN x.TagId, x.Timestamp AS t";

  for (bool sharing : {false, true}) {
    SCOPED_TRACE(sharing ? "scan sharing" : "dedicated plans");
    SequenceNumber seq = 0;
    auto make = [&](const char* type, const std::string& tag, Timestamp ts) {
      EventBuilder b(catalog, type);
      auto e = b.Set("TagId", tag).Set("AreaId", 1).Build(ts, seq++);
      EXPECT_TRUE(e.ok());
      return e.value();
    };

    std::vector<std::string> early;
    std::vector<std::string> out;
    RuntimeConfig config;
    config.shard_count = 2;
    config.merge_interval = 2;
    config.scan_sharing = sharing;
    ShardedRuntime runtime(&catalog, config);
    ASSERT_TRUE(runtime
                    .Register(kEarlyQuery,
                              [&early](const OutputRecord& r) {
                                early.push_back(r.ToString());
                              })
                    .ok());
    // A shelf reading dispatched BEFORE registration: the pattern's first
    // half exists in the stream but must stay invisible to the query.
    runtime.OnEvent(make("SHELF_READING", "TAG0", 1));
    ASSERT_TRUE(runtime
                    .Register(kQuery,
                              [&out](const OutputRecord& r) {
                                out.push_back(r.ToString());
                              })
                    .ok());
    // TAG1's shelf reading is post-registration; only it may match.
    runtime.OnEvent(make("SHELF_READING", "TAG1", 2));
    ASSERT_TRUE(runtime.Resize(4).ok());
    runtime.OnEvent(make("EXIT_READING", "TAG0", 3));  // no match: pre-reg x
    runtime.OnEvent(make("EXIT_READING", "TAG1", 4));  // match
    runtime.OnFlush();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].find("TAG1"), std::string::npos);
    ASSERT_EQ(early.size(), 2u);
    EXPECT_NE(early[0].find("TAG0"), std::string::npos);
    if (sharing) {
      EXPECT_GT(runtime.shared_scan_hits(), 0u);
    }
  }
}

TEST(ShardedRuntimeResizeTest, WithinLessStatefulQueriesResizeByteIdentical) {
  // Key-partitioned patterns with no WITHIN hold every partial match for
  // the whole stream. Their state moves across mid-stream grow and shrink
  // like any other, and output stays byte-identical to serial.
  Catalog catalog = Catalog::RetailDemo();
  auto trace = GoldenTrace(catalog);
  trace.resize(1600);
  const char* kQueries[] = {
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId = z.TagId "
      "RETURN x.TagId, x.Timestamp AS shelf_ts, z.Timestamp AS exit_ts",
      "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
      "WHERE x.TagId = y.TagId AND x.TagId = z.TagId RETURN x.TagId",
  };
  auto run = [&](QueryEngine* engine, ShardedRuntime* runtime) {
    std::vector<std::string> lines;
    for (size_t q = 0; q < std::size(kQueries); ++q) {
      OutputCallback collect = [&lines, q](const OutputRecord& record) {
        lines.push_back("q" + std::to_string(q) + "|" + record.ToString());
      };
      auto id = engine != nullptr ? engine->Register(kQueries[q], collect)
                                  : runtime->Register(kQueries[q], collect);
      EXPECT_TRUE(id.ok()) << id.status().ToString();
      if (runtime != nullptr) {
        EXPECT_TRUE(runtime->IsSharded(id.value()));
      }
    }
    for (size_t i = 0; i < trace.size(); ++i) {
      if (runtime != nullptr && (i == 500 || i == 1100)) {
        EXPECT_TRUE(runtime->Resize(i == 500 ? 5 : 3).ok());
      }
      if (engine != nullptr) engine->OnEvent(trace[i]);
      if (runtime != nullptr) runtime->OnEvent(trace[i]);
    }
    if (engine != nullptr) engine->OnFlush();
    if (runtime != nullptr) runtime->OnFlush();
    return lines;
  };

  QueryEngine engine(&catalog);
  auto serial = run(&engine, nullptr);
  ASSERT_GT(serial.size(), 100u);
  RuntimeConfig config;
  config.shard_count = 2;
  config.merge_interval = 128;
  ShardedRuntime runtime(&catalog, config);
  EXPECT_EQ(serial, run(nullptr, &runtime));
  EXPECT_EQ(runtime.resize_count(), 2u);
  EXPECT_EQ(runtime.shard_count(), 3);
}

TEST(ShardedRuntimeResizeTest, ResizesWhileTheRingsAreBackedUp) {
  // A 100 us per-event UDF makes the workers fall far behind the
  // dispatcher, which then blocks on the busiest shard's full 4-slot ring.
  // It resizes 1 -> 2 -> 4 -> 1 shards at fixed positions, so every resize
  // starts with a full ring to drain before the hand-off, and no output
  // record may be lost, duplicated or reordered against the serial engine.
  Catalog catalog = Catalog::RetailDemo();
  auto install = [](QueryEngine& engine, bool slow) {
    (void)engine.functions()->Register(
        "slow_pass", 1, [slow](const std::vector<Value>& args) {
          if (slow) std::this_thread::sleep_for(std::chrono::microseconds(100));
          return Result<Value>(args[0]);
        });
  };
  const char* kQuery =
      "EVENT SHELF_READING s WHERE slow_pass(s.AreaId) >= 0 RETURN s.TagId";
  constexpr uint64_t kEvents = 2000;
  std::vector<EventPtr> events;
  for (uint64_t i = 0; i < kEvents; ++i) {
    EventBuilder b(catalog, "SHELF_READING");
    auto e = b.Set("TagId", "TAG" + std::to_string(i % 32))
                 .Set("AreaId", static_cast<int64_t>(i % 4))
                 .Build(static_cast<Timestamp>(1 + i / 8),
                        static_cast<SequenceNumber>(i));
    ASSERT_TRUE(e.ok());
    events.push_back(e.value());
  }

  std::vector<std::string> serial;
  {
    QueryEngine engine(&catalog);
    install(engine, false);
    ASSERT_TRUE(engine
                    .Register(kQuery,
                              [&serial](const OutputRecord& record) {
                                serial.push_back(record.ToString());
                              })
                    .ok());
    for (const EventPtr& event : events) engine.OnEvent(event);
    engine.OnFlush();
  }
  ASSERT_EQ(serial.size(), kEvents);  // every shelf reading passes

  RuntimeConfig config;
  config.shard_count = 1;
  config.queue_capacity = 4;
  config.merge_interval = 8;
  ShardedRuntime runtime(&catalog, config,
                         [&install](QueryEngine& engine) { install(engine, true); });
  std::vector<std::string> sharded;
  auto id = runtime.Register(kQuery, [&sharded](const OutputRecord& record) {
    sharded.push_back(record.ToString());
  });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(runtime.IsSharded(id.value()));

  // Positions off the 8-event round boundary: the last dispatched event
  // still sits in its unsent batch, so the workers are behind by
  // construction, whatever the scheduler did.
  const std::map<size_t, int> resizes_at = {{501, 2}, {1003, 4}, {1505, 1}};
  for (size_t i = 0; i < events.size(); ++i) {
    auto it = resizes_at.find(i);
    if (it != resizes_at.end()) {
      EXPECT_LT(sharded.size(), i) << "workers caught up before event " << i;
      ASSERT_TRUE(runtime.Resize(it->second).ok()) << "at event " << i;
      ASSERT_EQ(runtime.shard_count(), it->second);
    }
    runtime.OnEvent(events[i]);
  }
  runtime.OnFlush();
  EXPECT_EQ(sharded.size(), kEvents);
  EXPECT_EQ(serial, sharded);
  EXPECT_EQ(runtime.resize_count(), 3u);
  EXPECT_EQ(runtime.grow_count(), 2u);
  EXPECT_EQ(runtime.shrink_count(), 1u);
}

// --- Per-batch merge progress under interleaved streams ----------------------

TEST(ShardedRuntimeTest, PerBatchProgressDeliversIncrementallyAcrossStreams) {
  // With interleaved default+named traffic a busy worker's own events cannot
  // vouch for the other stream's parked deferrals, so its event batches
  // carry the per-stream clocks and claim the dispatched prefix themselves.
  // The rounds must then deliver before flush without reordering anything.
  // The 4-slot rings make the delivery certain: a push to a worker waits
  // until the worker has finished the batch pushed five before it.
  Catalog catalog = Catalog::RetailDemo();
  auto trace = GoldenTrace(catalog);
  const char* kDefaultQuery =
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) "
      "WHERE x.TagId = z.TagId WITHIN 80 RETURN x.TagId, z.Timestamp AS t";
  const char* kNamedQuery =
      "FROM belt EVENT SEQ(SHELF_READING x, !(EXIT_READING y)) "
      "WHERE x.TagId = y.TagId WITHIN 40 RETURN x.TagId";

  std::vector<std::string> serial;
  {
    QueryEngine engine(&catalog);
    ASSERT_TRUE(engine
                    .Register(kDefaultQuery,
                              [&serial](const OutputRecord& r) {
                                serial.push_back("d|" + r.ToString());
                              })
                    .ok());
    ASSERT_TRUE(engine
                    .Register(kNamedQuery,
                              [&serial](const OutputRecord& r) {
                                serial.push_back("n|" + r.ToString());
                              })
                    .ok());
    FeedInterleaved(trace, &engine, nullptr);
    engine.OnFlush();
  }
  ASSERT_GT(serial.size(), 20u);

  std::vector<std::string> sharded;
  size_t delivered_before_flush = 0;
  RuntimeConfig config;
  config.shard_count = 4;
  config.queue_capacity = 4;
  config.merge_interval = 16;
  ShardedRuntime runtime(&catalog, config);
  ASSERT_TRUE(runtime
                  .Register(kDefaultQuery,
                            [&sharded](const OutputRecord& r) {
                              sharded.push_back("d|" + r.ToString());
                            })
                  .ok());
  ASSERT_TRUE(runtime
                  .Register(kNamedQuery,
                            [&sharded](const OutputRecord& r) {
                              sharded.push_back("n|" + r.ToString());
                            })
                  .ok());
  FeedInterleaved(trace, nullptr, &runtime);
  delivered_before_flush = sharded.size();
  runtime.OnFlush();
  EXPECT_EQ(serial, sharded);
  EXPECT_GT(delivered_before_flush, 0u)
      << "per-batch progress claims did not advance the merge";
}

TEST(ShardedRuntimeTest, FullSkewDeliversBeforeFlushAtTheDefaultCadence) {
  // Every event carries one key, so one shard does all the work and the
  // other three move their progress claims only through the rounds' clock
  // batches. At the default interval (eight rounds here) output must surface
  // before the end of the stream, in serial order. The 2-slot rings make
  // the delivery certain: a worker's round-4 push waits until it has
  // processed its round-1 batch, so round 4 delivers what round 1 certified.
  Catalog catalog = Catalog::RetailDemo();
  const char* kQuery =
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) "
      "WHERE x.TagId = z.TagId WITHIN 5 RETURN x.TagId, z.Timestamp AS t";
  std::vector<EventPtr> trace;
  for (uint64_t i = 0; i < 2048; ++i) {
    EventBuilder b(catalog, i % 5 == 4 ? "EXIT_READING" : "SHELF_READING");
    auto e = b.Set("TagId", "LONER")
                 .Set("AreaId", int64_t{1})
                 .Build(static_cast<Timestamp>(1 + i / 2),
                        static_cast<SequenceNumber>(i));
    ASSERT_TRUE(e.ok());
    trace.push_back(e.value());
  }

  std::vector<std::string> serial;
  {
    QueryEngine engine(&catalog);
    ASSERT_TRUE(engine
                    .Register(kQuery,
                              [&serial](const OutputRecord& r) {
                                serial.push_back(r.ToString());
                              })
                    .ok());
    for (const auto& event : trace) engine.OnEvent(event);
    engine.OnFlush();
  }
  ASSERT_GT(serial.size(), 100u);

  std::vector<std::string> sharded;
  RuntimeConfig config;
  config.shard_count = 4;
  config.queue_capacity = 2;
  ShardedRuntime runtime(&catalog, config);
  auto id = runtime.Register(kQuery, [&sharded](const OutputRecord& r) {
    sharded.push_back(r.ToString());
  });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(runtime.IsSharded(id.value()));
  for (const auto& event : trace) runtime.OnEvent(event);
  size_t delivered_before_flush = sharded.size();
  runtime.OnFlush();
  EXPECT_EQ(serial, sharded);
  EXPECT_GT(delivered_before_flush, 0u)
      << "no round delivered: output waited for the end of the stream";
}

TEST(ShardedRuntimeTest, StatsAggregateAcrossWorkers) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = GoldenTrace(catalog);
  RuntimeConfig config;
  config.shard_count = 4;
  ShardedRuntime runtime(&catalog, config);
  uint64_t outputs = 0;
  auto id = runtime.Register(kGoldenQueries[0],
                             [&outputs](const OutputRecord&) { ++outputs; });
  ASSERT_TRUE(id.ok());
  for (const auto& event : trace) runtime.OnEvent(event);
  runtime.OnFlush();
  auto stats = runtime.Stats();
  EXPECT_EQ(stats.queries, 1u);
  // Every event lands on exactly one shard.
  EXPECT_EQ(stats.events_processed, trace.size());
  EXPECT_EQ(stats.outputs, outputs);
  EXPECT_GT(outputs, 0u);
  EXPECT_EQ(runtime.records_merged(), outputs);
  auto full = runtime.FullStats();
  EXPECT_EQ(full.engine.outputs, outputs);
  EXPECT_EQ(full.events_dispatched, trace.size());
  EXPECT_EQ(full.records_merged, outputs);
  EXPECT_EQ(full.merge_pending, 0u);
  EXPECT_EQ(full.dispatch_log_len, 0u);  // DrainFinal cleared the logs
  EXPECT_GE(full.peak_dispatch_log_len, 1u);
  EXPECT_EQ(full.stream_count, 1u);  // default input only
  std::string report = runtime.StatsReport();
  EXPECT_NE(report.find("runtime shards=4"), std::string::npos);
  EXPECT_NE(report.find("dispatch log:"), std::string::npos);
  EXPECT_NE(report.find("stream <default>:"), std::string::npos);
}

TEST(ShardedRuntimeTest, StatsReportCarriesAllDocumentedLines) {
  // The operations guide (docs/operations.md) walks users through this
  // report line by line; every documented line must actually appear, with
  // real numbers, after default + named-stream traffic and a resize.
  Catalog catalog = Catalog::RetailDemo();
  auto trace = GoldenTrace(catalog);
  RuntimeConfig config;
  config.shard_count = 2;
  config.merge_interval = 128;
  config.log_compact_min = 64;
  ShardedRuntime runtime(&catalog, config);
  ASSERT_TRUE(runtime.Register(kGoldenQueries[0], nullptr).ok());
  ASSERT_TRUE(runtime.Register(kGoldenQueries[3], nullptr).ok());  // broadcast
  ASSERT_TRUE(runtime
                  .Register(
                      "FROM belt EVENT SEQ(SHELF_READING x, EXIT_READING z) "
                      "WHERE x.TagId = z.TagId WITHIN 40 RETURN x.TagId",
                      nullptr)
                  .ok());
  FeedInterleaved(trace, nullptr, &runtime, {{2000, 4}});
  runtime.OnFlush();

  std::string report = runtime.StatsReport();
  // Header: shard count reflects the post-resize layout, query split shown.
  EXPECT_NE(report.find("runtime shards=4"), std::string::npos) << report;
  EXPECT_NE(report.find("(sharded=2 broadcast=1)"), std::string::npos) << report;
  // Dispatch-log health: length, peak, compaction counters (PR 2 lines).
  EXPECT_NE(report.find("dispatch log: len="), std::string::npos) << report;
  EXPECT_NE(report.find(" peak="), std::string::npos) << report;
  EXPECT_NE(report.find(" compactions="), std::string::npos) << report;
  EXPECT_NE(report.find("entries reclaimed)"), std::string::npos) << report;
  // Resize counters.
  EXPECT_NE(report.find("resizes: total=1 up=1 down=0\n"), std::string::npos)
      << report;
  // One line per input stream with per-shard routing counts: the default
  // input and the named belt stream, each with a 4-slot shard vector.
  EXPECT_NE(report.find("stream <default>: events=2000"), std::string::npos)
      << report;
  EXPECT_NE(report.find("stream belt: events=2000"), std::string::npos)
      << report;
  size_t default_line = report.find("stream <default>:");
  ASSERT_NE(default_line, std::string::npos);
  size_t bracket = report.find("shards=[", default_line);
  ASSERT_NE(bracket, std::string::npos) << report;
  size_t close = report.find(']', bracket);
  ASSERT_NE(close, std::string::npos);
  std::string vec = report.substr(bracket + 8, close - bracket - 8);
  EXPECT_EQ(std::count(vec.begin(), vec.end(), ' '), 3) << vec;  // 4 shards
  // Per-worker engine lines: 4 shards + the broadcast worker.
  for (int s = 0; s < 4; ++s) {
    EXPECT_NE(report.find("shard " + std::to_string(s) + ": events="),
              std::string::npos)
        << report;
  }
  EXPECT_NE(report.find("broadcast: events="), std::string::npos) << report;
}

// --- Engine-level additions used by the runtime ------------------------------

TEST(QueryEngineRuntimeSupportTest, RegisterAsUsesExplicitIdAndDetectsClash) {
  Catalog catalog = Catalog::RetailDemo();
  QueryEngine engine(&catalog);
  auto id = engine.RegisterAs(42, "EVENT SHELF_READING s RETURN s.TagId",
                              nullptr);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 42);
  EXPECT_NE(engine.plan(42), nullptr);
  auto clash = engine.RegisterAs(42, "EVENT SHELF_READING s RETURN s.TagId",
                                 nullptr);
  EXPECT_FALSE(clash.ok());
  // Auto ids continue past the explicit one.
  auto next = engine.Register("EVENT SHELF_READING s RETURN s.TagId", nullptr);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 43);
}

TEST(QueryEngineRuntimeSupportTest, WatermarkReleasesTailNegation) {
  Catalog catalog = Catalog::RetailDemo();
  QueryEngine engine(&catalog);
  int outputs = 0;
  auto id = engine.Register(
      "EVENT SEQ(SHELF_READING x, !(EXIT_READING y)) "
      "WHERE x.TagId = y.TagId WITHIN 5 RETURN x.TagId",
      [&outputs](const OutputRecord&) { ++outputs; });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EventBuilder b(catalog, "SHELF_READING");
  auto e = b.Set("TagId", "T").Set("AreaId", 0).Build(1, 0);
  ASSERT_TRUE(e.ok());
  engine.OnEvent(e.value());
  EXPECT_EQ(outputs, 0);
  engine.OnWatermark(6);  // window closes at 6; release needs now > 6
  EXPECT_EQ(outputs, 0);
  engine.OnWatermark(7);
  EXPECT_EQ(outputs, 1);

  // Without `prune` a watermark releases the same way but leaves expired
  // state to the next pruning one: the exit candidate of another tag
  // outlives its 2W horizon until then.
  EventBuilder exits(catalog, "EXIT_READING");
  auto exit = exits.Set("TagId", "U").Set("AreaId", 3).Build(8, 1);
  auto again = b.Set("TagId", "T").Set("AreaId", 0).Build(9, 2);
  ASSERT_TRUE(exit.ok() && again.ok());
  engine.OnEvent(exit.value());
  engine.OnEvent(again.value());
  const Negation& negation = engine.plan(id.value())->negation();
  engine.OnWatermark(100, /*prune=*/false);
  EXPECT_EQ(outputs, 2);
  EXPECT_EQ(negation.StateFootprint().buffered, 1u);
  engine.OnWatermark(100);
  EXPECT_EQ(negation.StateFootprint().buffered, 0u);
}

TEST(QueryEngineRuntimeSupportTest, StreamWatermarkReleasesNamedStreamDeferral) {
  Catalog catalog = Catalog::RetailDemo();
  QueryEngine engine(&catalog);
  int outputs = 0;
  auto id = engine.Register(
      "FROM belt EVENT SEQ(SHELF_READING x, !(EXIT_READING y)) "
      "WHERE x.TagId = y.TagId WITHIN 5 RETURN x.TagId",
      [&outputs](const OutputRecord&) { ++outputs; });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EventBuilder b(catalog, "SHELF_READING");
  auto e = b.Set("TagId", "T").Set("AreaId", 0).Build(1, 0);
  ASSERT_TRUE(e.ok());
  engine.OnStreamEvent("belt", e.value());
  EXPECT_EQ(outputs, 0);
  // The default-input clock must not touch named-stream plans.
  engine.OnWatermark(100);
  EXPECT_EQ(outputs, 0);
  engine.OnStreamWatermark("BELT", 7);  // case-insensitive; 7 > 1 + 5
  EXPECT_EQ(outputs, 1);
}

TEST(QueryEngineRuntimeSupportTest, OutputRecordsCarrySerialOrderStamp) {
  Catalog catalog = Catalog::RetailDemo();
  QueryEngine engine(&catalog);
  std::vector<OutputRecord> records;
  auto immediate = engine.Register(
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) "
      "WHERE x.TagId = z.TagId WITHIN 10",
      [&records](const OutputRecord& r) { records.push_back(r); });
  ASSERT_TRUE(immediate.ok());
  auto deferred = engine.Register(
      "EVENT SEQ(SHELF_READING x, !(EXIT_READING y)) "
      "WHERE x.TagId = y.TagId WITHIN 5 RETURN x.TagId",
      [&records](const OutputRecord& r) { records.push_back(r); });
  ASSERT_TRUE(deferred.ok());

  EventBuilder b1(catalog, "SHELF_READING");
  auto shelf = b1.Set("TagId", "A").Set("AreaId", 0).Build(2, 0);
  ASSERT_TRUE(shelf.ok());
  EventBuilder b2(catalog, "EXIT_READING");
  auto exit_event = b2.Set("TagId", "A").Set("AreaId", 3).Build(4, 1);
  ASSERT_TRUE(exit_event.ok());
  engine.OnEvent(shelf.value());
  engine.OnEvent(exit_event.value());
  engine.OnFlush();

  ASSERT_EQ(records.size(), 1u);  // tail negation suppressed by the exit
  EXPECT_FALSE(records[0].deferred);
  EXPECT_EQ(records[0].emit_ts, 4);
  EXPECT_EQ(records[0].emit_seq, 1u);
}

}  // namespace
}  // namespace sase
