#ifndef SASE_TESTS_QUERY_GEN_H_
#define SASE_TESTS_QUERY_GEN_H_

// Seeded generator of valid SASE queries and event streams for the
// randomized differential harness (tests/differential_test.cc).
//
// The query space covers the language surface the engine executes:
// single-event and SEQ patterns (2-4 components over the retail types),
// optional negated components at the head, middle or tail, TagId/AreaId
// equivalence classes (both shardable and broadcast-only shapes),
// single-variable predicates, WITHIN windows (including the WITHIN-less
// stateful shape that only snapshot v2 can checkpoint), and RETURN clauses
// from default projection through running aggregates (COUNT/SUM/AVG/
// MIN/MAX, plain and nested in arithmetic).
//
// Every candidate is validated through the real Parser + Analyzer before it
// is handed out, so the harness only ever measures execution divergence,
// never generator sloppiness. Generation is a pure function of the seed:
// a failing case reproduces from the seed printed in the test failure.

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "rfid/workload.h"

namespace sase {
namespace testgen {

/// Seeded consumer-acknowledgement plan for the exactly-once crash-window
/// mode: how the simulated consumer acks delivered records, how the journal
/// group-commits those acks, and how wide the two crash windows are when
/// the kill lands.
///
///   - emit-to-ack window: `ack_stride > 1` leaves a tail of delivered but
///     never-acked stamps, and `stall_after_percent < 100` stops the
///     consumer acking entirely partway to the crash;
///   - ack-to-fsync window: `ack_commit_interval > 1` means up to
///     interval-1 acks sit in the journal's pending batch, which dies with
///     the process (EventJournal's destructor deliberately does not
///     commit).
struct AckPlan {
  uint64_t ack_commit_interval = 1;  // group-commit batch size
  uint64_t ack_stride = 1;  // ack stamps whose position % stride == 0
  int stall_after_percent = 100;  // consumer stops acking past this point

  std::string Describe() const {
    std::ostringstream out;
    out << "ack{interval=" << ack_commit_interval << " stride=" << ack_stride
        << " stall@" << stall_after_percent << "%}";
    return out.str();
  }
};

/// One differential test case: queries registered up front, the event
/// stream they execute over, and the consumer-ack plan for the
/// exactly-once crash-window mode.
struct GeneratedCase {
  uint64_t seed = 0;
  std::vector<std::string> queries;
  std::vector<EventPtr> events;
  AckPlan ack_plan;

  /// Reproduction banner for failure messages.
  std::string Describe() const {
    std::ostringstream out;
    out << "seed=" << seed << " events=" << events.size() << " "
        << ack_plan.Describe();
    for (size_t i = 0; i < queries.size(); ++i) {
      out << "\n  q" << i << ": " << queries[i];
    }
    return out.str();
  }
};

class QueryGenerator {
 public:
  QueryGenerator(const Catalog* catalog, uint64_t seed)
      : catalog_(catalog), rng_(seed) {}

  /// Generates one analyzable query (validated; retries internally).
  std::string NextQuery() {
    for (int attempt = 0; attempt < 64; ++attempt) {
      std::string text = Candidate();
      if (Valid(text)) return text;
    }
    // The grammar below always produces at least the trivial shape; if we
    // get here the generator itself regressed.
    return "EVENT SHELF_READING s";
  }

  /// Generates `count` structurally identical queries: same component
  /// skeleton (types, negation placement), same equivalence class and same
  /// window boundedness — different predicate constants, comparison ops and
  /// WITHIN spans. With scan sharing enabled they all land in one shared
  /// group (engine/shared_scan.h GroupKey ignores exactly the parts that
  /// vary), so a family is the unit the sharing differential mode stresses.
  std::vector<std::string> NextFamily(int count) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      std::vector<std::string> family = FamilyCandidate(count);
      bool ok = true;
      for (const std::string& text : family) {
        if (!Valid(text)) {
          ok = false;
          break;
        }
      }
      if (ok) return family;
    }
    return std::vector<std::string>(static_cast<size_t>(count),
                                    "EVENT SHELF_READING s");
  }

 private:
  int Roll(int bound) {
    return static_cast<int>(rng_() % static_cast<uint64_t>(bound));
  }
  bool Chance(int percent) { return Roll(100) < percent; }

  bool Valid(const std::string& text) {
    auto parsed = Parser::Parse(text);
    if (!parsed.ok()) return false;
    Analyzer analyzer(catalog_, TimeConfig{});
    return analyzer.Analyze(std::move(parsed).value()).ok();
  }

  const char* RandomType() {
    static const char* kTypes[] = {"SHELF_READING", "COUNTER_READING",
                                   "EXIT_READING"};
    return kTypes[Roll(3)];
  }

  std::string Candidate() {
    // Variable names by component position (4 positives + 1 negation max).
    static const char* kVars[] = {"a", "b", "c", "d", "e"};

    bool single = Chance(20);
    int positives = single ? 1 : 2 + Roll(3);
    int negated_slot = -1;  // slot index within the component list
    int components = positives;
    if (!single && Chance(35)) {
      components = positives + 1;
      negated_slot = Roll(components);
    }

    bool head_or_tail_negation =
        negated_slot == 0 || negated_slot == components - 1;
    // Head/tail negation requires WITHIN (analyzer rule); otherwise the
    // WITHIN-less stateful shape is itself a target state class.
    bool with_window = head_or_tail_negation || Chance(70);
    int window = 20 + Roll(4) * 35;  // 20..125 ticks

    std::ostringstream out;
    out << "EVENT ";
    std::vector<std::string> var_names;
    if (single) {
      out << RandomType() << " " << kVars[0];
      var_names.push_back(kVars[0]);
    } else {
      out << "SEQ(";
      for (int i = 0; i < components; ++i) {
        if (i > 0) out << ", ";
        bool negate = i == negated_slot;
        if (negate) out << "!(";
        out << RandomType() << " " << kVars[i];
        if (negate) out << ")";
        var_names.push_back(kVars[i]);
      }
      out << ")";
    }

    // WHERE: an equivalence class across every variable (70% TagId — the
    // shardable shape — else AreaId), plus scattered single-variable
    // predicates on AreaId.
    std::vector<std::string> conjuncts;
    if (!single && Chance(80)) {
      const char* attr = Chance(70) ? "TagId" : "AreaId";
      for (size_t i = 1; i < var_names.size(); ++i) {
        conjuncts.push_back(var_names[0] + "." + attr + " = " + var_names[i] +
                            "." + attr);
      }
    }
    for (const std::string& var : var_names) {
      if (!Chance(25)) continue;
      static const char* kOps[] = {"=", "!=", "<", ">"};
      conjuncts.push_back(var + ".AreaId " + kOps[Roll(4)] + " " +
                          std::to_string(Roll(4)));
    }
    if (!conjuncts.empty()) {
      out << " WHERE ";
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        if (i > 0) out << " AND ";
        out << conjuncts[i];
      }
    }

    if (with_window) out << " WITHIN " << window;

    // RETURN: default projection (omitted), a plain projection, or running
    // aggregates (possibly nested in arithmetic). Aggregate references must
    // use a positive variable.
    std::string agg_var;
    for (int i = 0; i < components; ++i) {
      if (i != negated_slot) {
        agg_var = var_names[static_cast<size_t>(i)];
        break;
      }
    }
    int ret = Roll(100);
    if (ret < 30) {
      // default projection
    } else if (ret < 65) {
      out << " RETURN " << agg_var << ".TagId, " << agg_var << ".AreaId";
      if (Chance(50)) out << ", " << agg_var << ".Timestamp AS ts";
    } else {
      static const char* kAggs[] = {"COUNT(*)", "SUM({v}.AreaId)",
                                    "AVG({v}.AreaId)", "MIN({v}.AreaId)",
                                    "MAX({v}.AreaId)"};
      std::string agg = kAggs[Roll(5)];
      size_t pos;
      while ((pos = agg.find("{v}")) != std::string::npos) {
        agg.replace(pos, 3, agg_var);
      }
      out << " RETURN " << agg << " AS agg0";
      if (Chance(40)) out << ", COUNT(*) + 1 AS agg1";
      if (Chance(40)) out << ", " << agg_var << ".TagId";
    }
    return out.str();
  }

  /// One family: skeleton decisions (components, negation slot, equivalence
  /// class, which variables carry a single-variable predicate, RETURN
  /// shape) are rolled once; per member only comparison ops, constants and
  /// the WITHIN span vary. Families are always SEQ patterns of >= 2
  /// positives — a single-event family would share trivially.
  std::vector<std::string> FamilyCandidate(int count) {
    static const char* kVars[] = {"a", "b", "c", "d", "e"};
    static const char* kOps[] = {"=", "!=", "<", ">"};

    int positives = 2 + Roll(3);
    int components = positives;
    int negated_slot = -1;
    if (Chance(50)) {
      components = positives + 1;
      negated_slot = Roll(components);
    }
    bool head_or_tail_negation =
        negated_slot == 0 || negated_slot == components - 1;
    // Boundedness is part of the group key, so the whole family is either
    // windowed (spans vary) or WITHIN-less.
    bool with_window = head_or_tail_negation || Chance(85);

    std::vector<const char*> types;
    for (int i = 0; i < components; ++i) types.push_back(RandomType());
    bool with_eq = Chance(85);
    const char* eq_attr = Chance(70) ? "TagId" : "AreaId";
    std::vector<bool> pred_on(static_cast<size_t>(components), false);
    for (int i = 0; i < components; ++i) {
      pred_on[static_cast<size_t>(i)] = Chance(35);
    }
    std::string agg_var;
    for (int i = 0; i < components; ++i) {
      if (i != negated_slot) {
        agg_var = kVars[i];
        break;
      }
    }
    int ret = Roll(100);

    std::vector<std::string> family;
    for (int member = 0; member < count; ++member) {
      std::ostringstream out;
      out << "EVENT SEQ(";
      for (int i = 0; i < components; ++i) {
        if (i > 0) out << ", ";
        bool negate = i == negated_slot;
        if (negate) out << "!(";
        out << types[static_cast<size_t>(i)] << " " << kVars[i];
        if (negate) out << ")";
      }
      out << ")";

      std::vector<std::string> conjuncts;
      if (with_eq) {
        for (int i = 1; i < components; ++i) {
          conjuncts.push_back(std::string(kVars[0]) + "." + eq_attr + " = " +
                              kVars[i] + "." + eq_attr);
        }
      }
      for (int i = 0; i < components; ++i) {
        if (!pred_on[static_cast<size_t>(i)]) continue;
        conjuncts.push_back(std::string(kVars[i]) + ".AreaId " +
                            kOps[Roll(4)] + " " + std::to_string(Roll(4)));
      }
      if (!conjuncts.empty()) {
        out << " WHERE ";
        for (size_t i = 0; i < conjuncts.size(); ++i) {
          if (i > 0) out << " AND ";
          out << conjuncts[i];
        }
      }
      if (with_window) out << " WITHIN " << 20 + Roll(6) * 35;
      if (ret < 40) {
        // default projection
      } else if (ret < 75) {
        out << " RETURN " << agg_var << ".TagId, " << agg_var << ".AreaId";
      } else {
        out << " RETURN COUNT(*) AS agg0, " << agg_var << ".TagId";
      }
      family.push_back(out.str());
    }
    return family;
  }

  const Catalog* catalog_;
  std::mt19937_64 rng_;
};

/// Builds the whole differential case for `seed`: 1-3 generated queries and
/// a seeded synthetic stream sized for CI.
inline GeneratedCase GenerateCase(const Catalog& catalog, uint64_t seed,
                                  int64_t event_count) {
  GeneratedCase result;
  result.seed = seed;
  QueryGenerator generator(&catalog, seed);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  int query_count = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < query_count; ++i) {
    result.queries.push_back(generator.NextQuery());
  }
  SyntheticConfig config;
  config.seed = seed * 2654435761u + 1;
  config.event_count = event_count;
  config.tag_count = 8 + static_cast<int64_t>(rng() % 25);
  config.area_count = 4;
  SyntheticStreamGenerator stream(&catalog, config);
  result.events = stream.Generate();
  // Drawn after the stream parameters so pre-existing cases keep their
  // exact queries and events under the same seed.
  static const uint64_t kIntervals[] = {1, 4, 16};
  static const uint64_t kStrides[] = {1, 2, 3};
  static const int kStalls[] = {100, 85, 60};
  result.ack_plan.ack_commit_interval = kIntervals[rng() % 3];
  result.ack_plan.ack_stride = kStrides[rng() % 3];
  result.ack_plan.stall_after_percent = kStalls[rng() % 3];
  return result;
}

/// The sharing differential case for `seed`: 1-2 families of structurally
/// identical queries (2-4 members each), plus an occasional unrelated
/// singleton riding along so the run mixes shared groups with a
/// single-member group. The stream parameters mirror GenerateCase under a
/// distinct seed expansion, so the two sweeps cover different streams.
inline GeneratedCase GenerateSharingCase(const Catalog& catalog, uint64_t seed,
                                         int64_t event_count) {
  GeneratedCase result;
  result.seed = seed;
  QueryGenerator generator(&catalog, seed);
  std::mt19937_64 rng(seed ^ 0xda3e39cb94b95bdbull);
  int families = 1 + static_cast<int>(rng() % 2);
  for (int f = 0; f < families; ++f) {
    int size = 2 + static_cast<int>(rng() % 3);
    for (std::string& text : generator.NextFamily(size)) {
      result.queries.push_back(std::move(text));
    }
  }
  if (rng() % 2 == 0) result.queries.push_back(generator.NextQuery());
  SyntheticConfig config;
  config.seed = seed * 2654435761u + 7;
  config.event_count = event_count;
  config.tag_count = 8 + static_cast<int64_t>(rng() % 25);
  config.area_count = 4;
  SyntheticStreamGenerator stream(&catalog, config);
  result.events = stream.Generate();
  return result;
}

/// The skewed-stream case for `seed`: a hot key owning `hot_percent`% of
/// the keyed events plus a rotating cold tail wider than the hot-key
/// sketch, and a query set drawn from the three mitigation families by
/// seed:
///
///   0: stateless single-event queries only — a hot key may legally be
///      spread round-robin (replicable-query routing);
///   1: stateful patterns whose equivalence classes cover TagId AND AreaId
///      on every component (negations included) — a hot key may legally be
///      sub-partitioned by (TagId, AreaId);
///   2: stateful patterns covering only TagId — splitting must be refused
///      and the key stays pinned.
///
/// All three families must stay byte-identical to the serial reference
/// with mitigation on or off; they differ only in which routing the
/// mitigation may legally choose.
inline GeneratedCase GenerateSkewedCase(const Catalog& catalog, uint64_t seed,
                                        int64_t event_count,
                                        int hot_percent) {
  GeneratedCase result;
  result.seed = seed;
  std::mt19937_64 rng(seed ^ 0xc2b2ae3d27d4eb4full);
  int family = static_cast<int>(seed % 3);
  int window = 20 + static_cast<int>(rng() % 4) * 30;
  switch (family) {
    case 0:
      result.queries.push_back("EVENT SHELF_READING a WHERE a.AreaId >= " +
                               std::to_string(rng() % 3) +
                               " RETURN a.TagId, a.AreaId");
      result.queries.push_back("EVENT EXIT_READING a WHERE a.AreaId != " +
                               std::to_string(rng() % 4) +
                               " RETURN a.TagId");
      break;
    case 1:
      result.queries.push_back(
          "EVENT SEQ(SHELF_READING a, EXIT_READING b) "
          "WHERE a.TagId = b.TagId AND a.AreaId = b.AreaId WITHIN " +
          std::to_string(window));
      result.queries.push_back(
          "EVENT SEQ(SHELF_READING a, !(COUNTER_READING b), EXIT_READING c) "
          "WHERE a.TagId = b.TagId AND a.TagId = c.TagId "
          "AND a.AreaId = b.AreaId AND a.AreaId = c.AreaId WITHIN " +
          std::to_string(window + 15) + " RETURN a.TagId, a.AreaId");
      // Three positive states: the middle stack's back-pointers are read
      // after a split or resize moves them, so the hand-off must rebuild
      // them right.
      result.queries.push_back(
          "EVENT SEQ(SHELF_READING a, COUNTER_READING b, EXIT_READING c) "
          "WHERE a.TagId = b.TagId AND a.TagId = c.TagId "
          "AND a.AreaId = b.AreaId AND a.AreaId = c.AreaId WITHIN " +
          std::to_string(window + 30) +
          " RETURN a.TagId, b.Timestamp AS counter_ts, c.Timestamp AS exit_ts");
      break;
    default:
      result.queries.push_back(
          "EVENT SEQ(SHELF_READING a, EXIT_READING b) "
          "WHERE a.TagId = b.TagId WITHIN " + std::to_string(window) +
          " RETURN a.TagId");
      break;
  }
  // The clock advances irregularly so windows open and close; every retail
  // type carries TagId, so every event is keyed.
  static const char* kTypes[] = {"SHELF_READING", "COUNTER_READING",
                                 "EXIT_READING"};
  Timestamp ts = 1;
  int cold = 0;
  for (int64_t i = 0; i < event_count; ++i) {
    std::string tag = static_cast<int>(rng() % 100) < hot_percent
                          ? "HOT"
                          : "cold-" + std::to_string(cold++ % 40);
    EventBuilder builder(catalog, kTypes[rng() % 3]);
    builder.Set("TagId", tag)
        .Set("AreaId", static_cast<int64_t>(rng() % 4))
        .Set("ProductName", "P");
    auto event = builder.Build(ts, static_cast<SequenceNumber>(i));
    if (event.ok()) result.events.push_back(std::move(event).value());
    ts += static_cast<Timestamp>(rng() % 3);
  }
  return result;
}

}  // namespace testgen
}  // namespace sase

#endif  // SASE_TESTS_QUERY_GEN_H_
