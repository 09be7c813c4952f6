// Seeded RFID store traffic for the reading-to-alert benchmark.
//
// The generator is the benchmark's load source, separate from the system
// under test: it simulates a store (shelves, check-out counters with two
// antennas each, an exit with two antennas, a backroom) in which items
// arrive at a steady rate, dwell on a shelf, and then are bought, stolen,
// misplaced or returned to the backroom. It emits the raw readings the
// antennas would report, tick by tick, plus reader noise at the demo's
// rates in the forms the cleaning layer is specified to undo, and the
// ground truth the alerts must match.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cleaning/reading.h"
#include "rfid/store_layout.h"

namespace perfbench {

/// Shelves in the store; their area ids are 0..kShelves-1.
constexpr int kShelves = 8;
/// As in the demo, razors belong on the first shelf and one seen on the
/// second is misplaced.
constexpr int kRazorWrongShelf = 1;

/// Device-clock units per tick: SystemConfig's default raw_units_per_tick.
/// Every reading of tick t has raw_time t * kRawUnitsPerTick.
constexpr int64_t kRawUnitsPerTick = 1000;

/// The store every workload runs in.
sase::StoreLayout BenchStore();

/// One shoplifting: shelf -> exit with no counter in between. The
/// shoplifting query must report it once per shelf event of the item.
struct Theft {
  std::string epc;
  int64_t shelf_events = 0;  // cleaned SHELF_READING events of the item
  int64_t exit_tick = 0;     // tick of its exit readings
};

struct Trace {
  std::vector<sase::RawReading> readings;  // in device-clock order
  std::vector<std::pair<std::string, std::string>> products;  // epc, name
  std::vector<Theft> thefts;
  /// Ground truth for the other queries.
  uint64_t razor_wrong_shelf_events = 0;  // razor SHELF_READINGs there
  uint64_t shelf_events = 0;              // SHELF_READINGs after cleaning
  uint64_t shelf_visits = 0;              // (item, shelf) stays
  uint64_t clean_events = 0;              // events the cleaning layer emits
};

/// Generates arrivals for `arrival_ticks` ticks, then lets every item
/// finish. `item_base` keeps tag ids of different traces in one run
/// disjoint.
Trace Generate(uint64_t seed, int64_t arrival_ticks, uint64_t item_base);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
