#include "workload.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {

/// splitmix64: the inputs depend only on the seed, never on the library's
/// or the standard library's generators.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  int64_t Uniform(int64_t lo, int64_t hi) {  // inclusive
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

constexpr const char* kProducts[] = {"Milk",  "Bread",  "Coffee", "Tea",
                                     "Soap",  "Shampoo", "Batteries", "Socks",
                                     "Candy", "Cereal", "Juice",  "Pasta",
                                     "Rice",  "Salt",   "Honey",  "Jam"};
constexpr double kRazorShare = 0.08;

// Reader noise at the rates of the demo's NoiseModel
// (examples/retail_monitoring.cpp), each in a form one cleaning stage
// removes exactly, so the ground truth stays exact.
// Interior shelf scans lost, never more than two in a row, so temporal
// smoothing's three-tick window refills every one.
constexpr double kMiss = 0.10;
// Extra reads with a cut-off tag id (anomaly filter), per emitted reading.
constexpr double kTruncated = 0.02;
// Extra reads with a non-hex tag id or an unregistered reader id (anomaly
// filter), per emitted reading.
constexpr double kSpurious = 0.01;
// Reads an antenna reports twice in one scan (deduplication).
constexpr double kDuplicate = 0.05;

// Arrivals per tick average kItemsPerTick; the store holds ~20x as many.
constexpr int64_t kItemsPerTick = 40;
// Outcome shares in per mille; the rest go back to the backroom.
constexpr uint64_t kTheft = 100;
constexpr uint64_t kPurchase = 500;
constexpr uint64_t kMisplace = 150;

constexpr int64_t kCounterTicks = 2;
constexpr int64_t kExitTicks = 1;
constexpr int64_t kBackroomTicks = 2;

// Area ids of BenchStore after the shelves, in the order it adds them.
constexpr int kCounter1 = kShelves;
constexpr int kExit = kShelves + 2;
constexpr int kBackroom = kShelves + 3;

std::string Epc(uint64_t number) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ABC%021llX",
                static_cast<unsigned long long>(number));
  return std::string(buf, 24);
}

struct Segment {
  int area;
  int64_t from, to;  // ticks [from, to)
};

struct Item {
  std::string epc;
  std::vector<Segment> segments;
  size_t current = 0;
  int misses = 0;  // consecutive shelf scans missed
  bool razor = false;
  int64_t end() const { return segments.back().to; }
};

}  // namespace

sase::StoreLayout BenchStore() {
  sase::StoreLayout layout;
  for (int i = 0; i < kShelves; ++i) {
    layout.AddArea("Shelf " + std::to_string(i + 1), sase::AreaKind::kShelf);
  }
  layout.AddArea("Counter 1", sase::AreaKind::kCounter);
  layout.AddArea("Counter 2", sase::AreaKind::kCounter);
  layout.AddArea("Store Exit", sase::AreaKind::kExit);
  layout.AddArea("Backroom", sase::AreaKind::kBackroom);
  for (int i = 0; i < kShelves; ++i) layout.AddReader(i);
  for (int area : {kCounter1, kCounter1 + 1, kExit}) {
    layout.AddReader(area);
    layout.AddReader(area);
  }
  layout.AddReader(kBackroom);
  return layout;
}

Trace Generate(uint64_t seed, int64_t arrival_ticks, uint64_t item_base) {
  Rng rng(seed);
  sase::StoreLayout layout = BenchStore();
  const int invalid_reader = static_cast<int>(layout.readers().size()) + 7;
  // readers_of[area] = reader ids in id order.
  std::vector<std::vector<int>> readers_of(layout.areas().size());
  for (const auto& reader : layout.readers()) {
    readers_of[static_cast<size_t>(reader.area_id)].push_back(reader.id);
  }

  Trace trace;
  std::vector<Item> active;
  std::vector<std::vector<Item*>> in_area(layout.areas().size());
  uint64_t next_item = item_base;

  for (int64_t tick = 0;; ++tick) {
    bool arriving = tick < arrival_ticks;
    if (!arriving && active.empty()) break;
    int64_t arrivals = arriving ? rng.Uniform(kItemsPerTick / 2, kItemsPerTick * 3 / 2) : 0;
    for (int64_t i = 0; i < arrivals; ++i) {
      Item item;
      item.epc = Epc(next_item++);
      item.razor = rng.Chance(kRazorShare);
      trace.products.emplace_back(
          item.epc, item.razor ? "Razor"
                               : kProducts[rng.Uniform(0, std::size(kProducts) - 1)]);
      int64_t shelf_events = 0;
      auto stay_on_shelf = [&](int shelf, int64_t from, int64_t to) {
        item.segments.push_back({shelf, from, to});
        shelf_events += to - from;
        ++trace.shelf_visits;
        if (item.razor && shelf == kRazorWrongShelf) {
          trace.razor_wrong_shelf_events += static_cast<uint64_t>(to - from);
        }
      };
      int shelf = static_cast<int>(rng.Uniform(0, kShelves - 1));
      int64_t t = tick + rng.Uniform(8, 24);
      stay_on_shelf(shelf, tick, t);
      uint64_t draw = rng.Next() % 1000;
      if (draw < kTheft) {
        item.segments.push_back({kExit, t, t + kExitTicks});
        trace.thefts.push_back({item.epc, shelf_events, t});
      } else if (draw < kTheft + kPurchase) {
        int counter = kCounter1 + static_cast<int>(rng.Uniform(0, 1));
        item.segments.push_back({counter, t, t + kCounterTicks});
        t += kCounterTicks;
        item.segments.push_back({kExit, t, t + kExitTicks});
      } else if (draw < kTheft + kPurchase + kMisplace) {
        int other = static_cast<int>((shelf + rng.Uniform(1, kShelves - 1)) % kShelves);
        int64_t until = t + rng.Uniform(4, 12);
        stay_on_shelf(other, t, until);
        item.segments.push_back({kBackroom, until, until + kBackroomTicks});
      } else {
        item.segments.push_back({kBackroom, t, t + kBackroomTicks});
      }
      trace.shelf_events += static_cast<uint64_t>(shelf_events);
      trace.clean_events += static_cast<uint64_t>(item.end() - tick);
      active.push_back(std::move(item));
    }

    // Every antenna scans its area once per tick, in reader-id order.
    for (auto& list : in_area) list.clear();
    for (Item& item : active) {
      while (item.segments[item.current].to <= tick) ++item.current;
      in_area[static_cast<size_t>(item.segments[item.current].area)].push_back(&item);
    }
    for (size_t area = 0; area < in_area.size(); ++area) {
      const bool shelf = static_cast<int>(area) < kShelves;
      for (size_t antenna = 0; antenna < readers_of[area].size(); ++antenna) {
        int reader = readers_of[area][antenna];
        for (Item* item : in_area[area]) {
          const Segment& seg = item->segments[item->current];
          if (shelf) {
            bool interior = tick > seg.from && tick + 1 < seg.to;
            if (interior && item->misses < 2 && rng.Chance(kMiss)) {
              ++item->misses;
              continue;
            }
            item->misses = 0;
          }
          trace.readings.push_back({item->epc, reader, tick * kRawUnitsPerTick,
                                    false, ""});
          if (rng.Chance(kDuplicate)) {
            sase::RawReading echo = trace.readings.back();
            trace.readings.push_back(std::move(echo));
          }
          if (rng.Chance(kSpurious)) {
            sase::RawReading bogus{item->epc, reader, tick * kRawUnitsPerTick,
                                   false, ""};
            if (rng.Chance(0.5)) {
              bogus.tag_id[static_cast<size_t>(rng.Uniform(0, 23))] = 'Z';
            } else {
              bogus.reader_id = invalid_reader;
            }
            trace.readings.push_back(std::move(bogus));
          }
          if (rng.Chance(kTruncated)) {
            trace.readings.push_back(
                {item->epc.substr(0, static_cast<size_t>(rng.Uniform(8, 20))),
                 reader, tick * kRawUnitsPerTick, false, ""});
          }
        }
      }
    }
    active.erase(std::remove_if(active.begin(), active.end(),
                                [tick](const Item& item) {
                                  return item.end() <= tick + 1;
                                }),
                 active.end());
  }
  return trace;
}

}  // namespace perfbench
