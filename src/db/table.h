#ifndef SASE_DB_TABLE_H_
#define SASE_DB_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/value.h"
#include "util/status.h"

namespace sase {
namespace db {

/// Identifier of a row within its table; stable across updates, never
/// reused after deletion.
using RowId = int64_t;

/// One column of a table schema.
struct Column {
  std::string name;
  ValueType type = ValueType::kNull;
};

/// A row is a value per column, in schema order.
using Row = std::vector<Value>;

/// An in-memory relational table with optional hash indexes.
///
/// This is the storage engine behind the Event Database (the paper uses
/// MySQL 5.0.22). Rows live in
/// an ordered map keyed by RowId, so scans are deterministic; secondary
/// indexes are hash maps from column value to row ids, maintained on every
/// mutation — the access path for track-and-trace point lookups.
class Table {
 public:
  Table(std::string name, std::vector<Column> columns);

  const std::string& name() const { return name_; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Column position by (case-insensitive) name; -1 when absent.
  int FindColumn(const std::string& name) const;

  /// Inserts a row. The value count must match the schema; values must be
  /// NULL or type-compatible (int/double coerce).
  Result<RowId> Insert(Row row);

  /// Point read; nullptr when the row does not exist.
  const Row* Get(RowId id) const;

  /// Overwrites one column of a row.
  Status Update(RowId id, int column, Value value);

  /// Deletes a row; false when absent.
  bool Erase(RowId id);

  /// Full scan in RowId order. Return false from the callback to stop.
  void Scan(const std::function<bool(RowId, const Row&)>& fn) const;

  /// Builds a hash index over `column` (idempotent).
  Status CreateIndex(const std::string& column);
  bool HasIndex(int column) const;

  /// Indexed lookup: row ids whose `column` equals `value`, in RowId
  /// order. Requires an index on the column.
  Result<std::vector<RowId>> Lookup(int column, const Value& value) const;

  size_t row_count() const { return rows_.size(); }

 private:
  Status ValidateRow(const Row& row) const;
  void IndexInsert(int column, const Value& value, RowId id);
  void IndexErase(int column, const Value& value, RowId id);

  std::string name_;
  std::vector<Column> columns_;
  std::map<RowId, Row> rows_;
  RowId next_id_ = 1;
  // column -> (value -> sorted row ids)
  std::unordered_map<int, std::unordered_map<Value, std::vector<RowId>, ValueHash>>
      indexes_;
};

}  // namespace db
}  // namespace sase

#endif  // SASE_DB_TABLE_H_
