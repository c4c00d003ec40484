#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/table.h"
#include "util/status.h"

namespace aggchecker {
namespace db {

class RelationCache;

/// \brief Reference to a column by table and column name.
struct ColumnRef {
  std::string table;
  std::string column;

  bool operator==(const ColumnRef& other) const {
    return table == other.table && column == other.column;
  }
  bool operator<(const ColumnRef& other) const {
    return table != other.table ? table < other.table : column < other.column;
  }
  std::string ToString() const { return table + "." + column; }
};

/// \brief A primary-key/foreign-key edge between two tables.
struct ForeignKey {
  ColumnRef from;  ///< referencing (foreign-key) column
  ColumnRef to;    ///< referenced (primary-key) column
};

/// \brief One equi-join step along a join path.
struct JoinStep {
  std::string table;  ///< table being joined in
  ColumnRef left;     ///< column on the already-joined side
  ColumnRef right;    ///< column on `table`
};

/// \brief A join plan: the root table plus ordered equi-join steps.
struct JoinPlanResult {
  std::string root;
  std::vector<JoinStep> steps;
};

/// \brief A relational database: named tables plus PK-FK schema edges.
///
/// The schema's join graph must be acyclic (a requirement the paper states
/// in §6.3); AddForeignKey rejects edges that would close a cycle.
class Database {
 public:
  explicit Database(std::string name = "db");
  ~Database();
  Database(Database&&) noexcept;
  Database& operator=(Database&&) noexcept;

  const std::string& name() const { return name_; }

  Status AddTable(Table table);
  Status AddForeignKey(const ColumnRef& from, const ColumnRef& to);

  size_t num_tables() const { return tables_.size(); }
  const Table& table(size_t i) const { return *tables_[i]; }
  const Table* FindTable(const std::string& name) const;
  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }

  /// Resolves a column reference; null if the table or column is missing.
  const Column* FindColumn(const ColumnRef& ref) const;

  /// \brief Post-build ingestion (DESIGN.md §16), which is append-only:
  /// appends rows to `table` and bumps its data version. Validation and
  /// atomicity per Table::AppendRows; version-keyed caches (relation cache,
  /// cube results) invalidate lazily on their next acquire.
  Status AppendRows(const std::string& table,
                    std::vector<std::vector<Value>> rows);

  /// Current data version of `table` (case-insensitive), or 0 if the table
  /// does not exist — 0 never collides with a real version (they start
  /// at 1), so "unknown table" always compares unequal.
  uint64_t TableVersion(const std::string& table) const;

  /// The full version vector: (lowercased table name, version), sorted by
  /// name. The cache key domain for anything reading multiple tables.
  std::vector<std::pair<std::string, uint64_t>> VersionVector() const;

  /// \brief Join plan covering `tables`: a root table plus equi-join steps.
  ///
  /// Returns the steps needed to connect all requested tables through the
  /// PK-FK graph (possibly pulling in intermediate tables). Fails if some
  /// table is unreachable.
  Result<JoinPlanResult> JoinPlan(
      const std::vector<std::string>& tables) const;

  /// Total number of rows across all tables.
  size_t TotalRows() const;

  /// \brief Per-database cache of materialized joined relations.
  ///
  /// Shared by every evaluation component running over this database (cube
  /// backend, naive executor, result cache) so a distinct table set is
  /// joined at most once per checking run. Thread-safe; mutable through a
  /// const Database because caching is invisible to relational semantics.
  RelationCache& relation_cache() const { return *relation_cache_; }

 private:
  int TableIndex(const std::string& name) const;
  bool WouldCreateCycle(const std::string& a, const std::string& b) const;

  std::string name_;
  std::vector<std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, int> table_index_;
  std::vector<ForeignKey> foreign_keys_;
  mutable std::unique_ptr<RelationCache> relation_cache_;
};

}  // namespace db
}  // namespace aggchecker
