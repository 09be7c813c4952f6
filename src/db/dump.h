#ifndef SASE_DB_DUMP_H_
#define SASE_DB_DUMP_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "db/database.h"

namespace sase {
namespace db {

/// Text serialization of a Database — the persistence face of the Event
/// Database substitution (the paper's MySQL survives restarts; an in-memory
/// engine needs explicit dump/load to support the same "pre-populated with
/// data collected in advance" workflow of §4).
///
/// Format (line oriented, UTF-8):
///   TABLE <name>
///   <col>:<TYPE>|<col>:<TYPE>|...
///   INDEX <col>[,<col>...]          -- optional, restored on load
///   ROW <v>|<v>|...                 -- values: N, I:<int>, D:<double>,
///                                      S:<escaped>, B:0/1
///   END
/// Strings escape '\' '|' and newline as \\ \p \n (util EscapeField).
Status Dump(const Database& database, std::ostream* out);
Status DumpToFile(const Database& database, const std::string& path);

Result<std::unique_ptr<Database>> Load(std::istream* in);
Result<std::unique_ptr<Database>> LoadFromFile(const std::string& path);

/// Restores a dump into an existing (not necessarily empty) database:
/// tables already present receive the dump's rows appended; absent tables
/// are created. The checkpoint recovery path loads the Event Database dump
/// into a freshly constructed system whose components create their tables
/// lazily, so get-or-append is the semantics recovery needs.
Status LoadInto(std::istream* in, Database* database);
Status LoadFileInto(const std::string& path, Database* database);

/// One dump field of a single Value: N, I:<int>, D:<double>, S:<escaped>,
/// B:0/1. Shared with the checkpoint snapshot, whose SPLIT lines
/// serialize their keys in the same format. Thin
/// delegates to the hoisted codec in util/value_codec.h (which the engine's
/// operator-state serialization also uses), kept for source compatibility.
std::string EncodeValue(const Value& value);
Result<Value> DecodeValue(const std::string& text);

}  // namespace db
}  // namespace sase

#endif  // SASE_DB_DUMP_H_
