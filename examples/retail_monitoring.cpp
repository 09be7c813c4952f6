// The full §4 demonstration scenario: a simulated retail store (Figure 2:
// two shelves, a check-out counter, an exit — four readers), noisy RFID
// tags cleaned by the Cleaning and Association Layer, continuous queries
// for shoplifting and misplaced inventory, an archiving rule keeping the
// event database current, and the five UI windows of Figure 3 printed at
// the end.
//
// Run: ./retail_monitoring

#include <cstdio>

#include "rfid/tag.h"
#include "system/sase_system.h"

int main() {
  using namespace sase;

  // --- assemble the Figure-1 stack over the Figure-2 store -------------
  SystemConfig config;
  config.noise = NoiseModel{.miss_rate = 0.10,
                            .truncation_rate = 0.02,
                            .spurious_rate = 0.01,
                            .duplicate_rate = 0.05};
  config.seed = 2026;
  SaseSystem system(StoreLayout::RetailDemo(), config);

  const StoreLayout& layout = system.simulator().layout();
  auto shelves = layout.AreasByKind(AreaKind::kShelf);
  int counter = layout.FindAreaByKind(AreaKind::kCounter);
  int exit = layout.FindAreaByKind(AreaKind::kExit);

  // --- products registered with the (simulated) ONS --------------------
  const char* names[] = {"Razor", "Soap", "Shampoo", "Toothpaste", "Towel"};
  for (int i = 0; i < 25; ++i) {
    system.AddProduct({MakeEpc(i), names[i % 5], "2027-01-01", true});
  }

  // --- continuous queries (the demo registers these live) --------------
  int thefts = 0;
  auto shoplifting = system.RegisterMonitoringQuery(
      "shoplifting",
      "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
      "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 12 hours "
      "RETURN x.TagId, x.ProductName, z.AreaId, _retrieveLocation(z.AreaId)",
      [&thefts](const OutputRecord&) { ++thefts; });
  if (!shoplifting.ok()) {
    std::fprintf(stderr, "%s\n", shoplifting.status().ToString().c_str());
    return 1;
  }

  // Misplaced inventory: razors belong on shelf 1; one on shelf 2 is wrong.
  int misplaced = 0;
  auto misplaced_q = system.RegisterMonitoringQuery(
      "misplaced-inventory",
      "EVENT SHELF_READING s WHERE s.ProductName = 'Razor' AND s.AreaId = " +
          std::to_string(shelves[1]) +
          " RETURN s.TagId, s.AreaId, _retrieveLocation(s.AreaId)",
      [&misplaced](const OutputRecord&) { ++misplaced; });
  if (!misplaced_q.ok()) return 1;

  // Archiving rule: every shelf observation keeps location_history current.
  auto rule = system.RegisterArchivingRule(
      "location-update",
      "EVENT ANY(SHELF_READING s) "
      "RETURN _updateLocation(s.TagId, s.AreaId, s.Timestamp)");
  if (!rule.ok()) return 1;

  // --- the live behaviours (§4: simulated live in the store) -----------
  ScenarioScripter scripter(&system.simulator());
  scripter.Shoplift(MakeEpc(0), shelves[0], exit, /*start=*/2,
                    /*shelf_dwell=*/6, /*exit_dwell=*/4);
  scripter.Purchase(MakeEpc(1), shelves[0], counter, exit, /*start=*/3,
                    /*shelf_dwell=*/5, /*counter_dwell=*/4, /*exit_dwell=*/3);
  scripter.Misplace(MakeEpc(5), shelves[0], shelves[1], /*start=*/4);  // a Razor
  for (int i = 6; i < 25; ++i) {
    scripter.Restock(MakeEpc(i), shelves[i % 2], 1 + i % 4);
  }
  system.RunUntil(40);
  system.Flush();

  // --- the Figure-3 UI windows ------------------------------------------
  auto& reports = system.reports();
  std::printf("%s\n", reports.Channel(ReportBoard::kPresentQueries).ToString().c_str());
  std::printf("%s\n", reports.Channel(ReportBoard::kMessageResults).ToString().c_str());

  const auto& cleaning = reports.Channel(ReportBoard::kCleaningOutput);
  std::printf("=== %s === (%zu events, first 5)\n", cleaning.name().c_str(),
              cleaning.size());
  const std::vector<std::string> cleaned = cleaning.lines();
  for (size_t i = 0; i < cleaned.size() && i < 5; ++i) {
    std::printf("%s\n", cleaned[i].c_str());
  }

  std::printf("\n=== Cleaning and Association Layer statistics ===\n%s\n",
              system.cleaning().StatsReport().c_str());

  // --- ad-hoc SQL over the event database (logged to Database Report) ---
  (void)system.ExecuteSql(
      "SELECT TagId, AreaId FROM location_history WHERE TimeOut IS NULL "
      "ORDER BY TagId LIMIT 5");
  std::printf("\n%s\n", reports.Channel(ReportBoard::kDatabaseReport).ToString().c_str());

  std::printf("summary: %d theft alert(s), %d misplaced-inventory alert(s)\n",
              thefts, misplaced);
  return thefts >= 1 && misplaced >= 1 ? 0 : 1;
}
