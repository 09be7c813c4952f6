#ifndef SASE_DB_DATABASE_H_
#define SASE_DB_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/table.h"

namespace sase {
namespace db {

/// A named collection of tables — the Event Database of Figure 1 ("SASE
/// contains a persistence storage component to support querying over
/// historical data and to allow query results from the stream processor to
/// be joined with stored data", §3). The paper deploys MySQL; this is an
/// in-process substitute.
class Database {
 public:
  Database() = default;

  /// Creates a table; names are case-insensitive and must be unique.
  Result<Table*> CreateTable(const std::string& name,
                             std::vector<Column> columns);

  Status DropTable(const std::string& name);

  /// nullptr when absent.
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;
  size_t table_count() const { return tables_.size(); }

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;  // key: uppercased
};

}  // namespace db
}  // namespace sase

#endif  // SASE_DB_DATABASE_H_
