// Reading-to-alert benchmark: raw RFID readings -> cleaning -> event bus ->
// complex event processor (the serial engine, and with shards the sharded
// runtime) -> user callback, through the assembled SaseSystem.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One run has two phases over inputs generated from the seed:
//   saturated  fresh systems (set-up timed) are fed a fixed trace as fast as
//              the feeding thread accepts it; a pass runs from the first
//              reading to the end of Flush().
//   paced      one system is fed a second trace open-loop, one scan cycle
//              (tick) of readings at a time at a fixed tick rate; an
//              alert's latency runs from the moment its exit reading's scan
//              cycle was due to the moment the shoplifting callback sees it.
// Every pass checks the alerts against the generator's ground truth. The
// last stdout line is the JSON result: the paced phase's time in the
// system's calls per reading and alert latency, and set-up time, or with
// --trace 1 saturated throughput and the per-layer figures, taken from
// outside the system: timers around the calls the benchmark makes, a timed
// stand-in for the serial engine's bus subscription, and the layers' public
// counters.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cleaning/pipeline.h"
#include "core/catalog.h"
#include "db/database.h"
#include "db/ons.h"
#include "system/sase_system.h"
#include "workload.h"

namespace perfbench {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

struct Workload {
  const char* name;
  /// SystemConfig::shard_count. With 1 (the default, which the demo runs)
  /// every query runs on the serial engine and the queries keep the demo's
  /// _retrieveLocation calls; with shards the calls are left out, because a
  /// query that calls a database function is pinned to the serial engine.
  int shards;
  /// 1 = the demo's shoplifting query; otherwise that many per-shelf
  /// variants.
  int shoplifting_variants;
  bool scan_sharing;
  /// Raw-event archive and the location archiving rule (serial engine).
  bool archive;
  int64_t pass_ticks;  // arrival ticks per saturated pass (~0.1 s of work)
};

/// Scan cycles per second in the paced phase. A store's readers scan about
/// once a second; the benchmark plays the store 40 times faster, about
/// 32,000 readings per second, under a fifth of every workload's saturated
/// throughput on a 4-core x86 VM, so the backlog stays bounded. An
/// assumption, not a figure from a deployment.
constexpr double kPacedTicksPerSecond = 40;
/// Shares of --seconds: the saturated passes run until the first is spent;
/// the paced trace's arrivals last the second, and its items then take
/// under a second more to leave the store.
constexpr double kSaturatedShare = 0.4;
constexpr double kPacedShare = 0.45;
/// Paced alerts are timed only once the store has filled and until
/// arrivals stop: the traffic, and with it the runtime's merge cadence,
/// is steady in between. Most items leave the store within 30 ticks.
constexpr int64_t kSteadyMarginTicks = 30;

const Workload kWorkloads[] = {
    {"demo", 1, 1, false, true, 60},
    {"sharded", 4, 1, false, true, 60},
    {"shared64", 4, 64, true, false, 60},
    {"unshared64", 4, 64, false, false, 30},
};

constexpr const char* kLocationRule =
    "EVENT ANY(SHELF_READING s) "
    "RETURN _updateLocation(s.TagId, s.AreaId, s.Timestamp)";

/// The demo's shoplifting query, or a per-shelf variant of it.
std::string ShopliftingQuery(int variant, int variants, bool hybrid) {
  std::string text =
      "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
      "WHERE x.TagId = y.TagId AND x.TagId = z.TagId";
  if (variants > 1) {
    // Distinct shelves and windows keep the variants from being one query.
    text += " AND x.AreaId = " + std::to_string(variant % kShelves) + " WITHIN " +
            std::to_string(60 + variant);
  } else {
    text += " WITHIN 12 hours";
  }
  text += " RETURN x.TagId, x.ProductName, z.AreaId";
  return hybrid ? text + ", _retrieveLocation(z.AreaId)" : text;
}

/// The demo's misplaced-inventory query.
std::string MisplacedQuery(bool hybrid) {
  std::string text = "EVENT SHELF_READING s WHERE s.ProductName = 'Razor' AND s.AreaId = " +
                     std::to_string(kRazorWrongShelf) + " RETURN s.TagId, s.AreaId";
  return hybrid ? text + ", _retrieveLocation(s.AreaId)" : text;
}

/// The generated inputs of one phase and what the system must report.
struct Inputs {
  Trace trace;
  std::unordered_map<std::string, size_t> theft_of;  // epc -> theft index
  std::vector<uint32_t> expected;                    // records per theft
};

Inputs MakeInputs(const Workload& workload, uint64_t seed, int64_t ticks,
                  uint64_t item_base) {
  Inputs in;
  in.trace = Generate(seed, ticks, item_base);
  // Each shelf has variants / kShelves variants reporting its thefts.
  int reporting = workload.shoplifting_variants > 1
                      ? workload.shoplifting_variants / kShelves
                      : 1;
  for (size_t i = 0; i < in.trace.thefts.size(); ++i) {
    const Theft& theft = in.trace.thefts[i];
    in.theft_of.emplace(theft.epc, i);
    in.expected.push_back(static_cast<uint32_t>(theft.shelf_events * reporting));
  }
  return in;
}

/// Time the benchmark attributes to layers from outside the system.
struct Layers {
  uint64_t serial_engine_ns = 0;
  uint64_t callback_ns = 0;
  uint64_t callbacks = 0;
};

/// Stands in for the serial engine's bus subscription in traced runs and
/// times each call into it, minus the user callbacks it runs.
class EngineProbe : public sase::EventSink {
 public:
  EngineProbe(sase::EventSink* engine, Layers* layers)
      : engine_(engine), layers_(layers) {}
  void OnEvent(const sase::EventPtr& event) override {
    Timed([&] { engine_->OnEvent(event); });
  }
  void OnFlush() override {
    Timed([&] { engine_->OnFlush(); });
  }

 private:
  template <typename F>
  void Timed(F&& call) {
    uint64_t callbacks_before = layers_->callback_ns;
    uint64_t start = NowNs();
    call();
    layers_->serial_engine_ns +=
        NowNs() - start - (layers_->callback_ns - callbacks_before);
  }

  sase::EventSink* engine_;
  Layers* layers_;
};

struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// One system under test, set up for one workload and one input trace.
class Pass {
 public:
  Pass(const Workload& workload, const Inputs& inputs, bool traced)
      : workload_(workload), inputs_(inputs), traced_(traced),
        records_(inputs.trace.thefts.size(), 0) {
    sase::SystemConfig config;
    config.shard_count = workload.shards;
    config.scan_sharing = workload.scan_sharing;
    config.archive_raw_events = workload.archive;
    system_ = std::make_unique<sase::SaseSystem>(BenchStore(), config);
    if (traced_) {
      // The serial engine's results do not depend on its place among the
      // bus subscribers, so it can move behind a timer.
      probe_ = std::make_unique<EngineProbe>(&system_->engine(), &layers_);
      system_->event_bus().Unsubscribe(&system_->engine());
      system_->event_bus().Subscribe(probe_.get());
    }
    for (const auto& [epc, name] : inputs.trace.products) {
      sase::ProductInfo info;
      info.product_name = name;
      (void)system_->ons().RegisterProduct(epc, info);
    }
    const bool hybrid = workload.shards == 1;
    for (int v = 0; v < workload.shoplifting_variants; ++v) {
      Require(system_->RegisterMonitoringQuery(
          "shoplifting-" + std::to_string(v),
          ShopliftingQuery(v, workload.shoplifting_variants, hybrid),
          [this](const sase::OutputRecord& record) { OnTheft(record); }));
    }
    Require(system_->RegisterMonitoringQuery(
        "misplaced-inventory", MisplacedQuery(hybrid),
        [this](const sase::OutputRecord&) { ++misplaced_; }));
    if (workload.archive) {
      Require(system_->RegisterArchivingRule("location-update", kLocationRule));
    }
  }

  // The registered query callbacks hold `this`.
  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

  /// Saturated feed of the whole trace, then Flush().
  void RunSaturated() {
    const auto& readings = inputs_.trace.readings;
    const uint64_t cpu_start = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    const uint64_t thread_start = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    const uint64_t start = NowNs();
    for (size_t i = 0; i < readings.size(); ++i) {
      system_->cleaning().OnReading(readings[i]);
      if ((i & kDrainMask) == kDrainMask) DrainReports();
    }
    feed_ns_ = NowNs() - start;
    before_flush_ = layers_;
    system_->Flush();
    run_ns_ = NowNs() - start;
    thread_cpu_ns_ = CpuNs(CLOCK_THREAD_CPUTIME_ID) - thread_start;
    cpu_ns_ = CpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu_start;
  }

  /// Open-loop feed: tick t's readings are handed over together from the
  /// moment start + t / kPacedTicksPerSecond, as a reader reports a scan
  /// cycle. Latency is sampled for thefts that exit in ticks [from, to).
  void RunPaced(int64_t from, int64_t to) {
    const auto& readings = inputs_.trace.readings;
    const uint64_t start = NowNs() + 1000000;
    auto due_of = [start](int64_t tick) {
      return start + static_cast<uint64_t>(static_cast<double>(tick) * 1e9 /
                                           kPacedTicksPerSecond);
    };
    for (const Theft& theft : inputs_.trace.thefts) {
      const bool sampled = theft.exit_tick >= from && theft.exit_tick < to;
      due_.push_back(sampled ? due_of(theft.exit_tick) : 0);
    }
    pacing_ = true;
    int64_t tick = -1;
    uint64_t busy_from = NowNs();
    for (size_t i = 0; i < readings.size(); ++i) {
      if (readings[i].raw_time / kRawUnitsPerTick != tick) {
        busy_ns_ += NowNs() - busy_from;
        // The report consumer runs between scan cycles, off the alert path.
        DrainReports();
        tick = readings[i].raw_time / kRawUnitsPerTick;
        const uint64_t due = due_of(tick);
        uint64_t now = NowNs();
        while (now < due) now = NowNs();
        lags_ns_.push_back(now - due);
        busy_from = now;
      }
      system_->cleaning().OnReading(readings[i]);
    }
    system_->Flush();
    busy_ns_ += NowNs() - busy_from;
  }

  /// Compares every output count with the generator's ground truth.
  Verdict Check() {
    Verdict v;
    for (size_t t = 0; t < records_.size(); ++t) {
      ++v.attempted;
      if (records_[t] != inputs_.expected[t]) ++v.failed;
    }
    const Trace& trace = inputs_.trace;
    auto expect = [&](uint64_t got, uint64_t want, const char* what) {
      ++v.attempted;
      if (got == want) return;
      ++v.failed;
      std::fprintf(stderr, "perfbench: %s: got %llu, want %llu\n", what,
                   static_cast<unsigned long long>(got),
                   static_cast<unsigned long long>(want));
    };
    expect(unexpected_, 0, "alerts for tags that were not stolen");
    expect(misplaced_, trace.razor_wrong_shelf_events, "misplaced-inventory alerts");
    expect(system_->cleaning().event_generation().stats().events_out,
           trace.clean_events, "cleaned events");
    if (workload_.archive) {
      expect(system_->archiver().location_updates(), trace.shelf_events,
             "location updates");
      expect(system_->database().GetTable("location_history")->row_count(),
             trace.shelf_visits, "location history rows");
    }
    return v;
  }

  sase::SaseSystem& system() { return *system_; }
  const Layers& layers() const { return layers_; }
  const Layers& layers_before_flush() const { return before_flush_; }
  uint64_t feed_ns() const { return feed_ns_; }
  uint64_t run_ns() const { return run_ns_; }
  uint64_t cpu_ns() const { return cpu_ns_; }
  uint64_t thread_cpu_ns() const { return thread_cpu_ns_; }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  const std::vector<uint64_t>& lags_ns() const { return lags_ns_; }
  uint64_t busy_ns() const { return busy_ns_; }

 private:
  static constexpr size_t kDrainMask = 4095;

  static void Require(const sase::Result<sase::QueryId>& id) {
    if (!id.ok()) {
      std::fprintf(stderr, "perfbench: query registration failed: %s\n",
                   id.status().ToString().c_str());
      std::exit(1);
    }
  }

  void OnTheft(const sase::OutputRecord& record) {
    uint64_t start = traced_ ? NowNs() : 0;
    auto it = inputs_.theft_of.end();
    if (!record.values.empty() && record.values[0].type() == sase::ValueType::kString) {
      it = inputs_.theft_of.find(record.values[0].AsString());
    }
    if (it == inputs_.theft_of.end()) {
      ++unexpected_;
    } else if (records_[it->second]++ == 0 && pacing_ && due_[it->second] != 0) {
      latencies_ms_.push_back(static_cast<double>(NowNs() - due_[it->second]) / 1e6);
    }
    if (traced_) {
      layers_.callback_ns += NowNs() - start;
      ++layers_.callbacks;
    }
  }

  /// The report channels stand in for the demo UI's windows; a UI consumes
  /// them as they fill, so the benchmark empties them as it goes.
  void DrainReports() {
    for (const std::string& name : system_->reports().ChannelNames()) {
      system_->reports().Channel(name).Clear();
    }
  }

  const Workload& workload_;
  const Inputs& inputs_;
  const bool traced_;
  Layers layers_;
  Layers before_flush_;
  // Declared before system_ so the bus never outlives the probe it calls.
  std::unique_ptr<EngineProbe> probe_;
  std::unique_ptr<sase::SaseSystem> system_;

  std::vector<uint32_t> records_;  // shoplifting records per theft
  uint64_t unexpected_ = 0;
  uint64_t misplaced_ = 0;

  bool pacing_ = false;
  std::vector<uint64_t> due_;  // per theft: when its exit tick was due, 0 = unsampled
  std::vector<double> latencies_ms_;
  std::vector<uint64_t> lags_ns_;  // per paced tick: how late it was fed
  uint64_t feed_ns_ = 0;
  uint64_t run_ns_ = 0;
  uint64_t cpu_ns_ = 0;         // process, all threads
  uint64_t thread_cpu_ns_ = 0;  // the feeding thread
  uint64_t busy_ns_ = 0;  // paced: inside the system's calls
};

double Mean(const std::vector<uint64_t>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (uint64_t x : v) sum += static_cast<double>(x);
  return sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile, q in [0, 1].
template <typename T>
double Percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) + 0.999999);
  return static_cast<double>(v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1]);
}

/// Cleaning stages alone: the same pipeline configuration SaseSystem wires
/// (default SystemConfig), feeding a counting sink. ns per raw reading; a
/// wrong event count fails the run, as the figure then times another
/// pipeline.
double IsolatedCleaningNs(const Inputs& inputs, Verdict* verdict) {
  sase::StoreLayout layout = BenchStore();
  sase::SystemConfig defaults;
  sase::CleaningPipeline::Config config;
  for (const auto& reader : layout.readers()) {
    config.anomaly.valid_readers.insert(reader.id);
  }
  config.smoothing.window = defaults.smoothing_window_ticks * defaults.raw_units_per_tick;
  config.smoothing.sampling_interval = defaults.raw_units_per_tick;
  config.time.raw_units_per_tick = defaults.raw_units_per_tick;
  config.dedup.reader_to_area = layout.ReaderToArea();
  config.generation.area_to_event_type = layout.AreaToEventType();

  sase::Catalog catalog = sase::Catalog::RetailDemo();
  sase::db::Database database;
  sase::db::Ons ons(&database);
  for (const auto& [epc, name] : inputs.trace.products) {
    sase::ProductInfo info;
    info.product_name = name;
    (void)ons.RegisterProduct(epc, info);
  }
  uint64_t events = 0;
  sase::CallbackSink sink([&events](const sase::EventPtr&) { ++events; });
  sase::CleaningPipeline pipeline(config, &catalog, ons.Resolver(), &sink);
  uint64_t start = NowNs();
  for (const auto& reading : inputs.trace.readings) pipeline.OnReading(reading);
  pipeline.OnFlush();
  uint64_t elapsed = NowNs() - start;
  ++verdict->attempted;
  if (events != inputs.trace.clean_events) {
    ++verdict->failed;
    std::fprintf(stderr, "perfbench: isolated cleaning emitted %llu events, want %llu\n",
                 static_cast<unsigned long long>(events),
                 static_cast<unsigned long long>(inputs.trace.clean_events));
  }
  return static_cast<double>(elapsed) / static_cast<double>(inputs.trace.readings.size());
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

/// Per-layer figures of the traced saturated passes, one sample per pass.
struct LayerSamples {
  double clean_ns = 0;  // isolated cleaning, measured once per run
  std::vector<double> dispatcher_ns, dispatcher_cpu_ns, serial_ns, callback_ns,
      other_ns, flush_ms;
  uint64_t events = 0, dropped = 0, filled = 0, duplicates = 0;

  void Add(Pass& pass, size_t reading_count) {
    const auto& cleaning = pass.system().cleaning();
    const auto readings = static_cast<double>(reading_count);
    events = cleaning.event_generation().stats().events_out;
    const auto event_count = static_cast<double>(events);
    const Layers& feed = pass.layers_before_flush();
    dispatcher_ns.push_back(static_cast<double>(pass.run_ns()) / readings);
    dispatcher_cpu_ns.push_back(static_cast<double>(pass.thread_cpu_ns()) / readings);
    serial_ns.push_back(static_cast<double>(feed.serial_engine_ns) / event_count);
    callback_ns.push_back(static_cast<double>(pass.layers().callback_ns) /
                          static_cast<double>(std::max<uint64_t>(1, pass.layers().callbacks)));
    other_ns.push_back((static_cast<double>(pass.feed_ns()) - clean_ns * readings -
                        static_cast<double>(feed.serial_engine_ns + feed.callback_ns)) /
                       event_count);
    flush_ms.push_back(static_cast<double>(pass.run_ns() - pass.feed_ns()) / 1e6);
    dropped = cleaning.anomaly_filter().stats().dropped_spurious +
              cleaning.anomaly_filter().stats().dropped_truncated;
    filled = cleaning.smoothing().stats().readings_filled;
    duplicates = cleaning.deduplication().stats().dropped_duplicates;
  }
};

int Run(const Workload& workload, const Args& args) {
  const bool traced = args.trace == 1;
  const uint64_t item_base = (args.seed & 0xFFFFFF) << 32;
  Inputs saturated = MakeInputs(workload, args.seed * 2 + 1, workload.pass_ticks,
                                item_base);
  const auto paced_ticks = static_cast<int64_t>(kPacedTicksPerSecond * args.seconds * kPacedShare);
  Inputs paced = MakeInputs(workload, args.seed * 2 + 2, paced_ticks, item_base + (1ull << 31));
  Verdict total;
  auto tally = [&total](const Verdict& v) {
    total.attempted += v.attempted;
    total.failed += v.failed;
  };

  LayerSamples layers;
  if (traced) layers.clean_ns = IsolatedCleaningNs(saturated, &total);

  // Saturated phase: at least three passes, then until its share of the
  // budget is spent.
  std::vector<double> setup_s, throughput, cpu_ns;
  const auto saturated_readings = static_cast<double>(saturated.trace.readings.size());
  const uint64_t phase_start = NowNs();
  const auto phase_ns = static_cast<uint64_t>(args.seconds * kSaturatedShare * 1e9);
  for (int done = 0; done < 3 || (NowNs() - phase_start < phase_ns && done < 1000); ++done) {
    uint64_t t0 = NowNs();
    Pass pass(workload, saturated, traced);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    pass.RunSaturated();
    throughput.push_back(saturated_readings / (static_cast<double>(pass.run_ns()) / 1e9));
    cpu_ns.push_back(static_cast<double>(pass.cpu_ns()) / saturated_readings);
    tally(pass.Check());
    if (traced) layers.Add(pass, saturated.trace.readings.size());
  }

  // Paced phase.
  uint64_t t0 = NowNs();
  Pass pass(workload, paced, traced);
  setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  const int64_t margin = std::min(kSteadyMarginTicks, paced_ticks / 4);
  pass.RunPaced(margin, paced_ticks - margin);
  tally(pass.Check());
  ++total.attempted;
  if (pass.latencies_ms().empty()) {
    ++total.failed;
    std::fprintf(stderr, "perfbench: no paced alert was timed\n");
  }

  const std::vector<double>& latencies = pass.latencies_ms();
  const auto paced_readings = static_cast<double>(paced.trace.readings.size());
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu saturated passes of %zu readings "
               "(readings/s min/p75/max %.0f/%.0f/%.0f); %zu paced readings in "
               "%zu ticks, %zu alerts (ms p50/p95/p99/max %.3f/%.3f/%.3f/%.3f), tick lag "
               "p95 %.0f us\n",
               workload.name, static_cast<unsigned long long>(args.seed),
               throughput.size(), saturated.trace.readings.size(),
               Percentile(throughput, 0.0), Percentile(throughput, 0.75),
               Percentile(throughput, 1.0), paced.trace.readings.size(),
               pass.lags_ns().size(), latencies.size(), Percentile(latencies, 0.5),
               Percentile(latencies, 0.95), Percentile(latencies, 0.99),
               Percentile(latencies, 1.0),
               Percentile(pass.lags_ns(), 0.95) / 1e3);

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        {"ingest_ns", static_cast<double>(pass.busy_ns()) / paced_readings, "ns"},
        {"alert_p50_ms", Percentile(latencies, 0.50), "ms"},
        // p95, not p99: the few host stalls of a run land in the last
        // percent of the serial workload's alerts and move it by a third
        // from run to run.
        {"alert_p95_ms", Percentile(latencies, 0.95), "ms"},
        {"setup_s", Median(setup_s), "s"},
    };
  } else {
    metrics = {
        // Host interference only ever slows a pass, so the fast quartile of
        // many short passes is steadier than their median.
        {"throughput_rps", Percentile(throughput, 0.75), "1/s"},
        {"cpu_ns_per_reading", Median(cpu_ns), "ns"},
        {"dispatcher_ns", Median(layers.dispatcher_ns), "ns"},
        {"dispatcher_cpu_ns", Median(layers.dispatcher_cpu_ns), "ns"},
        {"clean_ns", layers.clean_ns, "ns"},
        {"bus_other_ns", Median(layers.other_ns), "ns"},
        {"serial_engine_ns", Median(layers.serial_ns), "ns"},
        {"callback_ns", Median(layers.callback_ns), "ns"},
        {"flush_ms", Median(layers.flush_ms), "ms"},
        {"pacer_lag_mean_us", Mean(pass.lags_ns()) / 1e3, "us"},
        {"readings", saturated_readings, "count"},
        {"events", static_cast<double>(layers.events), "count"},
        {"readings_dropped", static_cast<double>(layers.dropped), "count"},
        {"readings_filled", static_cast<double>(layers.filled), "count"},
        {"duplicates_dropped", static_cast<double>(layers.duplicates), "count"},
    };
  }
  PrintResult(total.failed == 0, total.attempted, total.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  for (const auto& workload : perfbench::kWorkloads) {
    if (args.workload == workload.name) return perfbench::Run(workload, args);
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
