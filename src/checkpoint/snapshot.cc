#include "checkpoint/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "db/dump.h"
#include "util/crc32.h"
#include "util/string_util.h"

namespace sase {
namespace checkpoint {
namespace {

constexpr const char* kStateHeader = "SASE-CHECKPOINT v5";
constexpr const char* kManifestHeader = "SASE-MANIFEST v1";
constexpr const char* kEngineHeader = "SASE-ENGINE-STATE v1";

std::string SnapshotDir(const std::string& dir, uint64_t id) {
  return dir + "/snap-" + std::to_string(id);
}

/// Best-effort fsync of an already-written file (and of the directory for
/// the manifest rename): recovery correctness never depends on it, but the
/// window in which an OS crash can lose a fresh checkpoint shrinks to the
/// rename itself.
void SyncPath(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

// Field parsing uses the strict util ParseU64/ParseI64 (string_util.h),
// shared with the engine-state codec.

Status WriteState(const std::string& path, const SystemSnapshot& snap) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << kStateHeader << "\n";
  out << "SHARDS " << snap.shard_count << "\n";
  out << "KEY " << EscapeField(snap.partition_key) << "\n";
  out << "DISPATCHED " << snap.events_dispatched << "\n";
  out << "DELIVERED " << snap.delivered_runtime << "|" << snap.delivered_serial
      << "\n";
  out << "ACKED " << snap.acked_runtime << "|" << snap.acked_serial << "\n";
  out << "ROUTED " << (snap.any_routed ? 1 : 0) << "|" << snap.routed_stream
      << "|" << (snap.multi_routed ? 1 : 0) << "\n";
  out << "CATALOG";
  for (size_t i = 0; i < snap.catalog_types.size(); ++i) {
    out << (i == 0 ? " " : "|") << EscapeField(snap.catalog_types[i]);
  }
  out << "\n";
  for (const SnapshotStream& stream : snap.streams) {
    out << "STREAM " << stream.id << "|" << EscapeField(stream.name) << "|"
        << stream.clock << "|" << stream.last_seq << "|" << stream.events
        << "\n";
  }
  for (const SnapshotSplit& split : snap.splits) {
    out << "SPLIT " << split.stream << "|" << split.mode << "|"
        << db::EncodeValue(split.key) << "|"
        << EscapeField(split.secondary_attr) << "\n";
  }
  for (const SnapshotQuery& query : snap.queries) {
    out << "QUERY " << query.id << "|" << (query.archiving ? "A" : "M") << "|"
        << (query.runtime_hosted ? "R" : "S") << "|"
        << (query.options.push_window ? 1 : 0) << "|"
        << (query.options.push_predicates ? 1 : 0) << "|"
        << (query.options.use_partitioning ? 1 : 0) << "|"
        << EscapeField(query.name) << "|" << EscapeField(query.text) << "\n";
  }
  out << "END\n";
  out.close();
  if (!out.good()) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

/// engine.sase: framed engine-state sections.
///
///   SASE-ENGINE-STATE v1
///   SECTION <kind>|<host>|<query-id>|<version>|<payload-bytes>|<crc32>
///   <payload-bytes bytes of payload>
///   ...
///   END
///
/// Each section's payload is CRC32'd, so a torn or bit-flipped section is
/// detected before any state is restored from it; the byte-counted framing
/// lets a reader skip sections whose kind it does not understand.
Status WriteEngineState(const std::string& path, const SystemSnapshot& snap) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << kEngineHeader << "\n";
  for (const EngineStateSection& section : snap.engine_state) {
    out << "SECTION " << EscapeField(section.kind) << "|"
        << EscapeField(section.host) << "|" << section.query << "|"
        << section.version << "|" << section.payload.size() << "|"
        << Crc32(section.payload.data(), section.payload.size()) << "\n";
    out.write(section.payload.data(),
              static_cast<std::streamsize>(section.payload.size()));
    out << "\n";
  }
  out << "END\n";
  out.close();
  if (!out.good()) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

Status ReadEngineState(const std::string& path, SystemSnapshot* snap) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("missing engine-state file: " + path);
  }
  std::error_code ec;
  uint64_t file_size = std::filesystem::file_size(path, ec);
  if (ec) return Status::Internal("cannot stat " + path + ": " + ec.message());
  std::string line;
  if (!std::getline(in, line) || line != kEngineHeader) {
    return Status::ParseError("bad engine-state header in " + path);
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line == "END") return Status::Ok();
    if (!StartsWith(line, "SECTION ")) {
      return Status::ParseError("bad engine-state line: " + line);
    }
    std::vector<std::string> fields = Split(line.substr(8), '|');
    if (fields.size() != 6) {
      return Status::ParseError("bad engine-state SECTION line: " + line);
    }
    EngineStateSection section;
    SASE_ASSIGN_OR_RETURN(section.kind, UnescapeField(fields[0]));
    SASE_ASSIGN_OR_RETURN(section.host, UnescapeField(fields[1]));
    SASE_ASSIGN_OR_RETURN(int64_t query, ParseI64(fields[2]));
    SASE_ASSIGN_OR_RETURN(uint64_t version, ParseU64(fields[3]));
    SASE_ASSIGN_OR_RETURN(uint64_t length, ParseU64(fields[4]));
    SASE_ASSIGN_OR_RETURN(uint64_t crc, ParseU64(fields[5]));
    section.query = query;
    if (version > std::numeric_limits<uint32_t>::max()) {
      return Status::ParseError("bad engine-state section version in: " + line);
    }
    section.version = static_cast<uint32_t>(version);
    std::string where = "engine-state section (" + section.kind + ", " +
                        section.host + ", query #" +
                        std::to_string(section.query) + ")";
    // The length field is untrusted bytes off disk: clamp it against the
    // file itself before allocating, so a corrupt header is a clean parse
    // error rather than a length_error/bad_alloc abort mid-recovery.
    uint64_t position =
        in.tellg() < 0 ? file_size : static_cast<uint64_t>(in.tellg());
    if (length > file_size - std::min(file_size, position)) {
      return Status::ParseError(where + " is truncated");
    }
    section.payload.resize(length);
    if (length > 0 &&
        !in.read(section.payload.data(), static_cast<std::streamsize>(length))) {
      return Status::ParseError(where + " is truncated");
    }
    char newline = 0;
    if (!in.get(newline) || newline != '\n') {
      return Status::ParseError(where + " has bad framing");
    }
    if (Crc32(section.payload.data(), section.payload.size()) != crc) {
      return Status::ParseError(where + " failed its CRC check");
    }
    snap->engine_state.push_back(std::move(section));
  }
  return Status::ParseError("engine-state file truncated (no END): " + path);
}

}  // namespace

Status WriteSnapshot(const std::string& dir, const SystemSnapshot& snap,
                     const db::Database& database) {
  std::error_code ec;
  std::string snap_dir = SnapshotDir(dir, snap.snapshot_id);
  std::filesystem::create_directories(snap_dir, ec);
  if (ec) {
    return Status::InvalidArgument("cannot create snapshot directory " +
                                   snap_dir + ": " + ec.message());
  }
  SASE_RETURN_IF_ERROR(WriteState(snap_dir + "/state.sase", snap));
  SASE_RETURN_IF_ERROR(WriteEngineState(snap_dir + "/engine.sase", snap));
  SASE_RETURN_IF_ERROR(db::DumpToFile(database, snap_dir + "/db.sase"));
  SyncPath(snap_dir + "/state.sase");
  SyncPath(snap_dir + "/engine.sase");
  SyncPath(snap_dir + "/db.sase");

  // The manifest repoint is the commit: tmp + rename keeps the previous
  // checkpoint authoritative until the new one is fully on disk. The
  // `format` line is the version check: a reader refuses a directory
  // written in any other format instead of misreading it.
  std::string tmp = dir + "/MANIFEST.tmp";
  {
    std::ofstream out(tmp);
    if (!out.is_open()) {
      return Status::InvalidArgument("cannot open for writing: " + tmp);
    }
    out << kManifestHeader << "\n";
    out << "snapshot " << snap.snapshot_id << "\n";
    out << "format " << kSnapshotFormat << "\n";
    out.close();
    if (!out.good()) return Status::Internal("write failed: " + tmp);
  }
  SyncPath(tmp);
  std::filesystem::rename(tmp, dir + "/MANIFEST", ec);
  if (ec) {
    return Status::Internal("cannot commit manifest: " + ec.message());
  }
  SyncPath(dir);
  return Status::Ok();
}

Result<uint64_t> ReadManifest(const std::string& dir) {
  std::ifstream in(dir + "/MANIFEST");
  if (!in.is_open()) {
    return Status::NotFound("no checkpoint manifest in " + dir);
  }
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) {
    return Status::ParseError("bad manifest header in " + dir);
  }
  Result<uint64_t> snapshot =
      Status::ParseError("manifest in " + dir + " names no snapshot");
  uint64_t format = 1;  // manifests predating the format line
  while (std::getline(in, line)) {
    if (StartsWith(line, "snapshot ")) {
      snapshot = ParseU64(line.substr(9));
      if (!snapshot.ok()) return snapshot.status();
    } else if (StartsWith(line, "format ")) {
      SASE_ASSIGN_OR_RETURN(format, ParseU64(line.substr(7)));
    }
  }
  if (format != static_cast<uint64_t>(kSnapshotFormat)) {
    return Status::InvalidArgument(
        "checkpoint in " + dir + " uses snapshot format " +
        std::to_string(format) + "; this reader reads only format " +
        std::to_string(kSnapshotFormat));
  }
  return snapshot;
}

Result<SystemSnapshot> ReadSnapshot(const std::string& dir, uint64_t id,
                                    db::Database* database) {
  std::string snap_dir = SnapshotDir(dir, id);
  std::ifstream in(snap_dir + "/state.sase");
  if (!in.is_open()) {
    return Status::NotFound("missing snapshot state: " + snap_dir);
  }
  std::string line;
  if (!std::getline(in, line) || line != kStateHeader) {
    return Status::ParseError("bad snapshot header in " + snap_dir + " ('" +
                              line + "', expected '" + kStateHeader + "')");
  }
  SystemSnapshot snap;
  snap.snapshot_id = id;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line == "END") {
      saw_end = true;
      break;
    }
    size_t space = line.find(' ');
    if (space == std::string::npos) {
      return Status::ParseError("bad snapshot line: " + line);
    }
    std::string tag = line.substr(0, space);
    std::vector<std::string> fields = Split(line.substr(space + 1), '|');
    auto field_u64 = [&fields](size_t i) { return ParseU64(fields[i]); };
    auto field_i64 = [&fields](size_t i) { return ParseI64(fields[i]); };

    if (tag == "SHARDS") {
      auto value = field_i64(0);
      if (!value.ok()) return value.status();
      snap.shard_count = static_cast<int>(value.value());
    } else if (tag == "KEY") {
      auto key = UnescapeField(fields[0]);
      if (!key.ok()) return key.status();
      snap.partition_key = std::move(key).value();
    } else if (tag == "DISPATCHED") {
      auto value = field_u64(0);
      if (!value.ok()) return value.status();
      snap.events_dispatched = value.value();
    } else if (tag == "DELIVERED") {
      if (fields.size() != 2) return Status::ParseError("bad DELIVERED line");
      auto runtime = field_u64(0);
      auto serial = field_u64(1);
      if (!runtime.ok()) return runtime.status();
      if (!serial.ok()) return serial.status();
      snap.delivered_runtime = runtime.value();
      snap.delivered_serial = serial.value();
    } else if (tag == "ACKED") {
      if (fields.size() != 2) return Status::ParseError("bad ACKED line");
      auto runtime = field_u64(0);
      auto serial = field_u64(1);
      if (!runtime.ok()) return runtime.status();
      if (!serial.ok()) return serial.status();
      snap.acked_runtime = runtime.value();
      snap.acked_serial = serial.value();
    } else if (tag == "ROUTED") {
      if (fields.size() != 3) return Status::ParseError("bad ROUTED line");
      auto stream = field_u64(1);
      if (!stream.ok()) return stream.status();
      snap.any_routed = fields[0] == "1";
      snap.routed_stream = static_cast<StreamId>(stream.value());
      snap.multi_routed = fields[2] == "1";
    } else if (tag == "CATALOG") {
      for (const std::string& field : fields) {
        auto name = UnescapeField(field);
        if (!name.ok()) return name.status();
        snap.catalog_types.push_back(std::move(name).value());
      }
    } else if (tag == "STREAM") {
      if (fields.size() != 5) return Status::ParseError("bad STREAM line");
      SnapshotStream stream;
      auto sid = field_u64(0);
      auto name = UnescapeField(fields[1]);
      auto clock = field_i64(2);
      auto seq = field_u64(3);
      auto events = field_u64(4);
      if (!sid.ok()) return sid.status();
      if (!name.ok()) return name.status();
      if (!clock.ok()) return clock.status();
      if (!seq.ok()) return seq.status();
      if (!events.ok()) return events.status();
      stream.id = static_cast<StreamId>(sid.value());
      stream.name = std::move(name).value();
      stream.clock = clock.value();
      stream.last_seq = seq.value();
      stream.events = events.value();
      snap.streams.push_back(std::move(stream));
    } else if (tag == "SPLIT") {
      if (fields.size() != 4) return Status::ParseError("bad SPLIT line");
      SnapshotSplit split;
      auto sid = field_u64(0);
      auto mode = field_i64(1);
      auto key = db::DecodeValue(fields[2]);
      auto attr = UnescapeField(fields[3]);
      if (!sid.ok()) return sid.status();
      if (!mode.ok()) return mode.status();
      if (!key.ok()) return key.status();
      if (!attr.ok()) return attr.status();
      split.stream = static_cast<StreamId>(sid.value());
      split.mode = static_cast<int>(mode.value());
      split.key = std::move(key).value();
      split.secondary_attr = std::move(attr).value();
      snap.splits.push_back(std::move(split));
    } else if (tag == "QUERY") {
      if (fields.size() != 8) return Status::ParseError("bad QUERY line");
      SnapshotQuery query;
      auto qid = field_i64(0);
      auto name = UnescapeField(fields[6]);
      auto text = UnescapeField(fields[7]);
      if (!qid.ok()) return qid.status();
      if (!name.ok()) return name.status();
      if (!text.ok()) return text.status();
      query.id = qid.value();
      query.archiving = fields[1] == "A";
      query.runtime_hosted = fields[2] == "R";
      query.options.push_window = fields[3] == "1";
      query.options.push_predicates = fields[4] == "1";
      query.options.use_partitioning = fields[5] == "1";
      query.name = std::move(name).value();
      query.text = std::move(text).value();
      snap.queries.push_back(std::move(query));
    } else {
      return Status::ParseError("unknown snapshot line: " + line);
    }
  }
  if (!saw_end) {
    return Status::ParseError("snapshot state truncated (no END): " + snap_dir);
  }
  // A bad section is a hard error: the caller must not restore half a
  // system from a damaged checkpoint.
  SASE_RETURN_IF_ERROR(ReadEngineState(snap_dir + "/engine.sase", &snap));
  if (database != nullptr) {
    SASE_RETURN_IF_ERROR(db::LoadFileInto(snap_dir + "/db.sase", database));
  }
  return snap;
}

Status LoadEngineSections(const SystemSnapshot& snap, const std::string& host,
                          const std::vector<QueryId>& queries,
                          QueryEngine* engine) {
  std::set<QueryId> plans;
  bool counters = false;
  for (const EngineStateSection& section : snap.engine_state) {
    if (section.host != host) continue;
    bool plan = section.kind == "plan";
    if (!plan && section.kind != "engine") continue;
    if (section.version > 1) {
      return Status::InvalidArgument(
          "engine-state section for query #" + std::to_string(section.query) +
          " uses payload version " + std::to_string(section.version) +
          "; this reader supports up to 1");
    }
    Status loaded = plan ? engine->RestoreState(section.query, section.payload)
                         : engine->RestoreEngineState(section.payload);
    if (!loaded.ok()) {
      return Status::InvalidArgument(
          "cannot restore engine state of query #" +
          std::to_string(section.query) + " on host '" + host +
          "': " + loaded.ToString());
    }
    if (plan) {
      plans.insert(section.query);
    } else {
      counters = true;
    }
  }
  for (QueryId id : queries) {
    if (plans.count(id) == 0) {
      return Status::InvalidArgument(
          "snapshot carries no engine-state payload for query #" +
          std::to_string(id) + " on host '" + host + "'");
    }
  }
  if (!counters) {
    return Status::InvalidArgument(
        "snapshot carries no engine-counter payload for host '" + host + "'");
  }
  return Status::Ok();
}

std::string DbDumpPath(const std::string& dir, uint64_t id) {
  return SnapshotDir(dir, id) + "/db.sase";
}

void RemoveStaleSnapshots(const std::string& dir, uint64_t keep) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return;
  for (const auto& entry : it) {
    std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) != 0) continue;
    uint64_t id = std::strtoull(name.substr(5).c_str(), nullptr, 10);
    if (id < keep) {
      std::filesystem::remove_all(entry.path(), ec);
    }
  }
}

}  // namespace checkpoint
}  // namespace sase
