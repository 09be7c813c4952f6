// Integration tests for the full Figure-1 stack: simulator -> cleaning ->
// event bus -> complex event processor + event database + UI channels.
// These reproduce §4's demonstration scenario end to end.

#include "system/sase_system.h"

#include <gtest/gtest.h>

#include "rfid/tag.h"

namespace sase {
namespace {

constexpr const char* kShopliftingQuery =
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
    "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 12 hours "
    "RETURN x.TagId, x.ProductName, z.AreaId, _retrieveLocation(z.AreaId)";

constexpr const char* kLocationArchivingRule =
    "EVENT ANY(SHELF_READING s) "
    "RETURN _updateLocation(s.TagId, s.AreaId, s.Timestamp)";

class SystemTest : public ::testing::Test {
 protected:
  static SystemConfig PerfectConfig() {
    SystemConfig config;
    config.noise = NoiseModel::Perfect();
    config.raw_units_per_tick = 1000;
    return config;
  }

  SystemTest() : system_(StoreLayout::RetailDemo(), PerfectConfig()) {}

  void AddDemoProducts() {
    system_.AddProduct({MakeEpc(1), "Razor", "2026-12-01", true});
    system_.AddProduct({MakeEpc(2), "Soap", "2027-01-01", true});
    system_.AddProduct({MakeEpc(3), "Shampoo", "2026-09-01", true});
  }

  SaseSystem system_;
};

TEST_F(SystemTest, ShopliftingScenarioRaisesAlert) {
  AddDemoProducts();
  std::vector<OutputRecord> alerts;
  ASSERT_TRUE(system_
                  .RegisterMonitoringQuery(
                      "shoplifting", kShopliftingQuery,
                      [&alerts](const OutputRecord& r) { alerts.push_back(r); })
                  .ok());

  const StoreLayout& layout = system_.simulator().layout();
  int shelf = layout.AreasByKind(AreaKind::kShelf)[0];
  int counter = layout.FindAreaByKind(AreaKind::kCounter);
  int exit = layout.FindAreaByKind(AreaKind::kExit);

  ScenarioScripter scripter(&system_.simulator());
  scripter.Shoplift(MakeEpc(1), shelf, exit, /*start=*/1);              // thief
  scripter.Purchase(MakeEpc(2), shelf, counter, exit, /*start=*/2);    // honest
  system_.RunUntil(20);
  system_.Flush();

  ASSERT_GE(alerts.size(), 1u);
  for (const auto& alert : alerts) {
    EXPECT_EQ(alert.Get("x.TagId").AsString(), MakeEpc(1));  // only the thief
    EXPECT_EQ(alert.Get("x.ProductName").AsString(), "Razor");
    EXPECT_EQ(alert.Get("z.AreaId").AsInt(), exit);
    // The hybrid DB lookup resolved the exit's description.
    EXPECT_EQ(alert.Get("_retrieveLocation(z.AreaId)").AsString(), "Store Exit");
  }

  // Figure 3's windows carry the intermediate results.
  EXPECT_GT(system_.reports().Channel(ReportBoard::kCleaningOutput).size(), 0u);
  EXPECT_TRUE(system_.reports().Channel(ReportBoard::kMessageResults)
                  .Contains("shoplifting"));
  EXPECT_TRUE(system_.reports().Channel(ReportBoard::kPresentQueries)
                  .Contains("SHELF_READING"));
  EXPECT_GT(system_.reports().Channel(ReportBoard::kStreamOutput).size(), 0u);
}

TEST_F(SystemTest, MisplacedInventoryQuery) {
  AddDemoProducts();
  const StoreLayout& layout = system_.simulator().layout();
  auto shelves = layout.AreasByKind(AreaKind::kShelf);
  ASSERT_EQ(shelves.size(), 2u);

  // Shelf 1 stocks Razors; a razor appearing on shelf 2 is misplaced.
  std::vector<OutputRecord> alerts;
  std::string query =
      "EVENT SHELF_READING s WHERE s.ProductName = 'Razor' AND s.AreaId = " +
      std::to_string(shelves[1]) + " RETURN s.TagId, s.AreaId";
  ASSERT_TRUE(system_
                  .RegisterMonitoringQuery(
                      "misplaced", query,
                      [&alerts](const OutputRecord& r) { alerts.push_back(r); })
                  .ok());

  ScenarioScripter scripter(&system_.simulator());
  scripter.Misplace(MakeEpc(1), shelves[0], shelves[1], /*start=*/1);
  scripter.Restock(MakeEpc(2), shelves[0], /*start=*/1);  // soap: fine
  system_.RunUntil(10);
  system_.Flush();

  ASSERT_GE(alerts.size(), 1u);
  for (const auto& alert : alerts) {
    EXPECT_EQ(alert.Get("s.TagId").AsString(), MakeEpc(1));
    EXPECT_EQ(alert.Get("s.AreaId").AsInt(), shelves[1]);
  }
}

TEST_F(SystemTest, ArchivingRuleKeepsDatabaseCurrent) {
  AddDemoProducts();
  ASSERT_TRUE(
      system_.RegisterArchivingRule("location-update", kLocationArchivingRule)
          .ok());

  const StoreLayout& layout = system_.simulator().layout();
  auto shelves = layout.AreasByKind(AreaKind::kShelf);
  ScenarioScripter scripter(&system_.simulator());
  scripter.Misplace(MakeEpc(1), shelves[0], shelves[1], /*start=*/1, /*dwell=*/3);
  system_.RunUntil(10);
  system_.Flush();

  // "The live updates ensure that all Event Database queries ... are
  // executed over an up-to-date state of the retail store."
  auto trace = system_.track_trace();
  auto current = trace.CurrentLocation(MakeEpc(1));
  ASSERT_TRUE(current.has_value());
  EXPECT_EQ(current->where.AsInt(), shelves[1]);
  auto history = trace.LocationHistory(MakeEpc(1));
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].where.AsInt(), shelves[0]);
}

TEST_F(SystemTest, AdHocSqlOverEventDatabase) {
  AddDemoProducts();
  ASSERT_TRUE(
      system_.RegisterArchivingRule("location-update", kLocationArchivingRule)
          .ok());
  ScenarioScripter scripter(&system_.simulator());
  scripter.Restock(MakeEpc(1), 0, 1);
  system_.RunUntil(5);
  system_.Flush();

  auto result = system_.ExecuteSql(
      "SELECT TagId, AreaId FROM location_history WHERE TimeOut IS NULL");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0][0].AsString(), MakeEpc(1));

  // The Database Report channel logged statement and result (Figure 3).
  EXPECT_TRUE(system_.reports().Channel(ReportBoard::kDatabaseReport)
                  .Contains("SELECT TagId"));

  // The raw event archive is queryable too.
  auto events = system_.ExecuteSql("SELECT * FROM events LIMIT 3");
  ASSERT_TRUE(events.ok());
  EXPECT_GT(events.value().rows.size(), 0u);
}

TEST(SystemReportBoundTest, ChannelsKeepTheNewestEntriesOfALongRun) {
  // A long run that never clears its channels: each window keeps only the
  // newest ReportChannel::kCapacity entries and counts the rest as evicted.
  // The raw-event archive is off, because its table grows by design.
  constexpr size_t kCapacity = ReportChannel::kCapacity;
  SystemConfig config;
  config.noise = NoiseModel::Perfect();
  config.archive_raw_events = false;
  SaseSystem system(StoreLayout::RetailDemo(), config);
  uint64_t records = 0;
  ASSERT_TRUE(system
                  .RegisterMonitoringQuery(
                      "on-shelf", "EVENT SHELF_READING s RETURN s.TagId",
                      [&records](const OutputRecord&) { ++records; })
                  .ok());
  std::vector<int> shelves =
      system.simulator().layout().AreasByKind(AreaKind::kShelf);
  ASSERT_FALSE(shelves.empty());
  ScenarioScripter scripter(&system.simulator());
  for (int i = 0; i < 200; ++i) {
    system.AddProduct({MakeEpc(i), "Soap", "2027-01-01", true});
    scripter.Restock(MakeEpc(i), shelves[static_cast<size_t>(i) % shelves.size()], 1);
  }
  system.RunUntil(220);
  system.Flush();

  const uint64_t events = system.cleaning().event_generation().stats().events_out;
  ASSERT_GE(events, 10 * kCapacity);
  ASSERT_GE(records, 10 * kCapacity);
  ReportBoard& reports = system.reports();
  for (const std::string& name : reports.ChannelNames()) {
    EXPECT_LE(reports.Channel(name).size(), kCapacity) << name;
  }
  const ReportChannel& cleaned = reports.Channel(ReportBoard::kCleaningOutput);
  EXPECT_EQ(cleaned.size(), kCapacity);
  EXPECT_EQ(cleaned.evicted(), events - kCapacity);
  for (const char* name :
       {ReportBoard::kStreamOutput, ReportBoard::kMessageResults}) {
    EXPECT_EQ(reports.Channel(name).size(), kCapacity) << name;
    EXPECT_EQ(reports.Channel(name).evicted(), records - kCapacity) << name;
  }
  // The newest entries are the ones kept.
  EXPECT_EQ(reports.Channel(ReportBoard::kMessageResults).lines().back(),
            "[on-shelf] " +
                reports.Channel(ReportBoard::kStreamOutput).lines().back());
  EXPECT_EQ(reports.Channel(ReportBoard::kPresentQueries).evicted(), 0u);
  // The scrape mirrors each channel's evictions.
  ASSERT_NE(system.metrics(), nullptr);
  system.ScrapeMetrics();
  EXPECT_EQ(system.metrics()
                ->GetCounter("sase_report_lines_evicted_total{channel=\""
                             "cleaning_and_association_layer_output\"}")
                ->Value(),
            events - kCapacity);
  EXPECT_EQ(system.metrics()
                ->GetCounter("sase_report_lines_evicted_total{channel=\""
                             "message_results\"}")
                ->Value(),
            records - kCapacity);
}

TEST_F(SystemTest, OnsMetadataFlowsIntoEvents) {
  AddDemoProducts();
  std::vector<OutputRecord> records;
  ASSERT_TRUE(system_
                  .RegisterMonitoringQuery(
                      "products", "EVENT SHELF_READING s RETURN s.ProductName",
                      [&records](const OutputRecord& r) { records.push_back(r); })
                  .ok());
  system_.simulator().Place(MakeEpc(3), 0);
  system_.RunUntil(2);
  system_.Flush();
  ASSERT_GE(records.size(), 1u);
  EXPECT_EQ(records[0].Get("s.ProductName").AsString(), "Shampoo");
}

TEST_F(SystemTest, NoisyReadersStillDetectShoplifting) {
  // With realistic reader noise the cleaning layer must repair the stream
  // well enough for detection to go through.
  SystemConfig config;
  config.noise = NoiseModel{.miss_rate = 0.2,
                            .truncation_rate = 0.05,
                            .spurious_rate = 0.05,
                            .duplicate_rate = 0.1};
  config.seed = 12345;
  config.raw_units_per_tick = 1000;
  config.smoothing_window_ticks = 3;
  SaseSystem noisy(StoreLayout::RetailDemo(), config);
  noisy.AddProduct({MakeEpc(1), "Razor", "", true});
  std::vector<OutputRecord> alerts;
  ASSERT_TRUE(noisy
                  .RegisterMonitoringQuery(
                      "shoplifting", kShopliftingQuery,
                      [&alerts](const OutputRecord& r) { alerts.push_back(r); })
                  .ok());

  ScenarioScripter scripter(&noisy.simulator());
  // Long dwells so the lossy readers observe every stage.
  scripter.Shoplift(MakeEpc(1), 0, 3, /*start=*/1, /*shelf_dwell=*/10,
                    /*exit_dwell=*/6);
  noisy.RunUntil(30);
  noisy.Flush();
  EXPECT_GE(alerts.size(), 1u);
  // Cleaning stats show the noise was actually exercised and repaired.
  EXPECT_GT(noisy.cleaning().anomaly_filter().stats().dropped_spurious +
                noisy.cleaning().anomaly_filter().stats().dropped_truncated,
            0u);
  EXPECT_GT(noisy.cleaning().deduplication().stats().dropped_duplicates, 0u);
}

TEST_F(SystemTest, ContainmentRuleTracksLoadingZone) {
  // Warehouse-style layout: loading zone feeds LOAD_READING events whose
  // ContainerId comes from the container tag sharing the read range.
  StoreLayout layout;
  int loading = layout.AddArea("Dock", AreaKind::kLoadingZone);
  int backroom = layout.AddArea("Backroom", AreaKind::kBackroom);
  int shelf = layout.AddArea("Shelf", AreaKind::kShelf);
  for (int area : {loading, backroom, shelf}) layout.AddReader(area);
  SaseSystem warehouse(std::move(layout), PerfectConfig());

  ASSERT_TRUE(warehouse
                  .RegisterArchivingRule(
                      "containment",
                      "EVENT ANY(LOAD_READING l) "
                      "RETURN _updateContainment(l.TagId, l.ContainerId, "
                      "l.Timestamp)")
                  .ok());
  ASSERT_TRUE(warehouse
                  .RegisterArchivingRule(
                      "location",
                      "EVENT ANY(SHELF_READING s) "
                      "RETURN _updateLocation(s.TagId, s.AreaId, s.Timestamp)")
                  .ok());
  // Unloading half: the first backroom reading closes the containment.
  ASSERT_TRUE(warehouse
                  .RegisterArchivingRule(
                      "containment-close",
                      "EVENT ANY(BACKROOM_READING b) "
                      "RETURN _closeContainment(b.TagId, b.Timestamp)")
                  .ok());

  warehouse.AddProduct({MakeEpc(1), "Crate", "", true});
  ScenarioScripter scripter(&warehouse.simulator());
  scripter.WarehouseArrival(MakeEpc(1), "CONT7", loading, backroom, shelf,
                            /*start=*/1, /*stage_dwell=*/3);
  warehouse.RunUntil(12);
  warehouse.Flush();

  auto trace = warehouse.track_trace();
  auto containment = trace.ContainmentHistory(MakeEpc(1));
  ASSERT_EQ(containment.size(), 1u);
  EXPECT_EQ(containment[0].where.AsString(), "CONT7");
  EXPECT_FALSE(containment[0].current());  // closed at the backroom
  EXPECT_FALSE(trace.CurrentContainment(MakeEpc(1)).has_value());
  auto location = trace.CurrentLocation(MakeEpc(1));
  ASSERT_TRUE(location.has_value());
  EXPECT_EQ(location->where.AsInt(), shelf);
  // The rule fires once per LOAD_READING (one per dwell tick); the history
  // stays deduplicated at one row.
  EXPECT_EQ(warehouse.archiver().containment_updates(), 3u);
}

TEST_F(SystemTest, ShardedSystemMatchesSerialAlerts) {
  // The same shoplifting scenario on a 4-shard system: the pure-stream query
  // scales out across shard workers, the hybrid DB query stays serial, and
  // both report exactly what the serial system reports.
  constexpr const char* kPureStreamQuery =
      "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
      "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 12 hours "
      "RETURN x.TagId, x.ProductName, z.AreaId";

  auto run = [&](int shard_count) {
    SystemConfig config = PerfectConfig();
    config.shard_count = shard_count;
    SaseSystem system(StoreLayout::RetailDemo(), config);
    system.AddProduct({MakeEpc(1), "Razor", "2026-12-01", true});
    system.AddProduct({MakeEpc(2), "Soap", "2027-01-01", true});
    std::vector<std::string> lines;
    EXPECT_TRUE(system
                    .RegisterMonitoringQuery(
                        "shoplifting", kPureStreamQuery,
                        [&lines](const OutputRecord& r) {
                          lines.push_back(r.ToString());
                        })
                    .ok());
    EXPECT_TRUE(system
                    .RegisterMonitoringQuery("hybrid", kShopliftingQuery,
                                             [&lines](const OutputRecord& r) {
                                               lines.push_back(r.ToString());
                                             })
                    .ok());
    const StoreLayout& layout = system.simulator().layout();
    ScenarioScripter scripter(&system.simulator());
    scripter.Shoplift(MakeEpc(1), layout.AreasByKind(AreaKind::kShelf)[0],
                      layout.FindAreaByKind(AreaKind::kExit), /*start=*/1);
    scripter.Purchase(MakeEpc(2), layout.AreasByKind(AreaKind::kShelf)[0],
                      layout.FindAreaByKind(AreaKind::kCounter),
                      layout.FindAreaByKind(AreaKind::kExit), /*start=*/2);
    system.RunUntil(20);
    system.Flush();
    return lines;
  };

  auto serial = run(1);
  ASSERT_GE(serial.size(), 2u);  // both queries alert on the thief
  auto sharded = run(4);

  // Per-query output is identical; the two queries run on different hosts
  // under sharding (runtime merge vs serial engine), so only per-query
  // streams are order-comparable.
  auto only = [](const std::vector<std::string>& lines, bool hybrid) {
    std::vector<std::string> out;
    for (const auto& line : lines) {
      if ((line.find("_retrieveLocation") != std::string::npos) == hybrid) {
        out.push_back(line);
      }
    }
    return out;
  };
  EXPECT_EQ(only(serial, false), only(sharded, false));
  EXPECT_EQ(only(serial, true), only(sharded, true));
}

TEST_F(SystemTest, ShardedSystemKeepsSerialOnlyQueriesOnEngine) {
  SystemConfig config = PerfectConfig();
  config.shard_count = 4;
  SaseSystem system(StoreLayout::RetailDemo(), config);
  ASSERT_NE(system.runtime(), nullptr);
  // Function-calling (hybrid stream+database) queries must fall back to the
  // serial engine; pure stream queries — default input or named FROM stream
  // — go to the runtime.
  ASSERT_TRUE(system
                  .RegisterMonitoringQuery(
                      "named-stream",
                      "FROM other EVENT SHELF_READING s RETURN s.TagId",
                      nullptr)
                  .ok());
  ASSERT_TRUE(
      system.RegisterMonitoringQuery("hybrid", kShopliftingQuery, nullptr)
          .ok());
  ASSERT_TRUE(system
                  .RegisterMonitoringQuery(
                      "pure", "EVENT SHELF_READING s RETURN s.TagId", nullptr)
                  .ok());
  EXPECT_EQ(system.engine().query_count(), 1u);
  EXPECT_EQ(system.runtime()->query_count(), 2u);
}

TEST_F(SystemTest, NamedStreamEventsReachRuntimeQueries) {
  SystemConfig config = PerfectConfig();
  config.shard_count = 4;
  SaseSystem system(StoreLayout::RetailDemo(), config);
  ASSERT_NE(system.runtime(), nullptr);
  std::vector<std::string> lines;
  ASSERT_TRUE(system
                  .RegisterMonitoringQuery(
                      "belt-watch",
                      "FROM belt EVENT SHELF_READING s RETURN s.TagId",
                      [&lines](const OutputRecord& r) {
                        lines.push_back(r.ToString());
                      })
                  .ok());
  EXPECT_EQ(system.runtime()->query_count(), 1u);
  EventBuilder b(system.catalog(), "SHELF_READING");
  auto event = b.Set("TagId", "TAG-BELT").Set("AreaId", 1).Build(5, 0);
  ASSERT_TRUE(event.ok());
  system.PublishStreamEvent("belt", event.value());
  system.runtime()->WaitIdle();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("TAG-BELT"), std::string::npos);
}

TEST_F(SystemTest, HonestPurchaseRaisesNoAlert) {
  AddDemoProducts();
  std::vector<OutputRecord> alerts;
  ASSERT_TRUE(system_
                  .RegisterMonitoringQuery(
                      "shoplifting", kShopliftingQuery,
                      [&alerts](const OutputRecord& r) { alerts.push_back(r); })
                  .ok());
  const StoreLayout& layout = system_.simulator().layout();
  ScenarioScripter scripter(&system_.simulator());
  scripter.Purchase(MakeEpc(2), layout.AreasByKind(AreaKind::kShelf)[0],
                    layout.FindAreaByKind(AreaKind::kCounter),
                    layout.FindAreaByKind(AreaKind::kExit), /*start=*/1);
  system_.RunUntil(15);
  system_.Flush();
  EXPECT_TRUE(alerts.empty());
}

}  // namespace
}  // namespace sase
