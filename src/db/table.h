#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/column.h"
#include "util/csv.h"
#include "util/status.h"

namespace aggchecker {
namespace db {

/// \brief A named table: an ordered list of equally sized columns.
class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {}

  /// Builds a table from parsed CSV, inferring column types: a column whose
  /// non-null cells are all integral is LONG, all numeric is DOUBLE,
  /// otherwise STRING (numeric-looking cells in a string column keep their
  /// string rendering).
  static Result<Table> FromCsv(std::string name, const csv::CsvData& data);

  /// Snapshot hook: assembles a table directly from restored columns (all
  /// already sized to `num_rows`), bypassing the AddColumn-before-AddRow
  /// staging rules. Fails if any column's size disagrees with `num_rows`.
  /// `data_version` restores the version counter the snapshot recorded, so
  /// caches keyed on it stay comparable across a save/load cycle.
  static Result<Table> FromSnapshotParts(
      std::string name, std::vector<std::unique_ptr<Column>> columns,
      size_t num_rows, uint64_t data_version = 1);

  const std::string& name() const { return name_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// Monotonically increasing data version (starts at 1). Bumped only by
  /// post-build ingestion (AppendRows), never by the initial staging path
  /// (AddRow) — a table under construction has no observers, so caches key
  /// on the version a finished table exposes.
  uint64_t version() const { return data_version_; }

  const Column& column(size_t i) const { return *columns_[i]; }
  Column& column(size_t i) { return *columns_[i]; }

  /// Case-insensitive column lookup. Returns -1 if absent.
  int ColumnIndex(const std::string& name) const;
  const Column* FindColumn(const std::string& name) const;

  /// Appends an empty column; all columns must be appended before rows.
  Status AddColumn(std::string column_name, ValueType type);

  /// Appends a row of values (one per column, in column order).
  Status AddRow(std::vector<Value> row);

  /// \brief Post-build ingestion: appends `rows` and bumps the data version.
  ///
  /// All rows are validated (arity and type: a LONG column accepts only
  /// longs, a DOUBLE column coerces longs, a STRING column renders anything)
  /// before anything mutates, so a rejected batch leaves the table — and its
  /// version — exactly as it was. Snapshot-backed columns materialize and
  /// detach on first touch (Column::Append). The `data.ingest.append` fault
  /// point fires before any mutation; chaos runs verify a faulted append
  /// leaves the version and every version-keyed cache untouched.
  Status AppendRows(std::vector<std::vector<Value>> rows);

 private:
  std::string name_;
  std::vector<std::unique_ptr<Column>> columns_;
  size_t num_rows_ = 0;
  uint64_t data_version_ = 1;
};

}  // namespace db
}  // namespace aggchecker
