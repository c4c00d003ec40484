#include "db/table.h"

#include <cmath>

#include "util/fault_injection.h"
#include "util/strings.h"

namespace aggchecker {
namespace db {

namespace {

/// Infers the most specific common type of a column's cells.
ValueType InferColumnType(const csv::CsvData& data, size_t col) {
  bool all_long = true;
  bool all_numeric = true;
  bool any_value = false;
  for (const auto& row : data.rows) {
    Value v = ParseCell(row[col]);
    if (v.is_null()) continue;
    any_value = true;
    switch (v.type()) {
      case ValueType::kLong:
        break;
      case ValueType::kDouble:
        all_long = false;
        break;
      default:
        all_long = false;
        all_numeric = false;
        break;
    }
    if (!all_numeric) break;
  }
  if (!any_value) return ValueType::kString;
  if (all_long) return ValueType::kLong;
  if (all_numeric) return ValueType::kDouble;
  return ValueType::kString;
}

/// Coerces a parsed cell to the column's declared type.
Value CoerceTo(Value v, ValueType type) {
  if (v.is_null()) return v;
  switch (type) {
    case ValueType::kLong:
      return v;  // inference guarantees it is already LONG
    case ValueType::kDouble:
      if (v.type() == ValueType::kLong) {
        return Value(static_cast<double>(v.AsLong()));
      }
      return v;
    case ValueType::kString:
      if (v.type() != ValueType::kString) return Value(v.ToString());
      return v;
    case ValueType::kNull:
      return Value::Null();
  }
  return v;
}

/// Ingestion-time coercion: stricter than CoerceTo (which trusts FromCsv's
/// inference) — a value that cannot represent itself in the column's declared
/// type is an error, not a silent reinterpretation.
Result<Value> CoerceForIngest(Value v, ValueType type) {
  if (v.is_null()) return v;
  switch (type) {
    case ValueType::kLong:
      if (v.type() != ValueType::kLong) {
        return Status::InvalidArgument(
            "cannot ingest non-long value into LONG column");
      }
      return v;
    case ValueType::kDouble:
      if (v.type() == ValueType::kLong) {
        return Value(static_cast<double>(v.AsLong()));
      }
      if (v.type() != ValueType::kDouble) {
        return Status::InvalidArgument(
            "cannot ingest non-numeric value into DOUBLE column");
      }
      return v;
    case ValueType::kString:
      if (v.type() != ValueType::kString) return Value(v.ToString());
      return v;
    case ValueType::kNull:
      return Value::Null();
  }
  return v;
}

}  // namespace

Result<Table> Table::FromCsv(std::string name, const csv::CsvData& data) {
  if (data.header.empty()) {
    return Status::InvalidArgument("CSV has no header");
  }
  Table table(std::move(name));
  std::vector<ValueType> types;
  types.reserve(data.header.size());
  for (size_t c = 0; c < data.header.size(); ++c) {
    ValueType type = InferColumnType(data, c);
    types.push_back(type);
    std::string col_name = strings::Trim(data.header[c]);
    if (col_name.empty()) col_name = strings::Format("col%zu", c);
    Status s = table.AddColumn(std::move(col_name), type);
    if (!s.ok()) return s;
  }
  for (const auto& raw_row : data.rows) {
    std::vector<Value> row;
    row.reserve(raw_row.size());
    for (size_t c = 0; c < raw_row.size(); ++c) {
      row.push_back(CoerceTo(ParseCell(raw_row[c]), types[c]));
    }
    Status s = table.AddRow(std::move(row));
    if (!s.ok()) return s;
  }
  return table;
}

Result<Table> Table::FromSnapshotParts(
    std::string name, std::vector<std::unique_ptr<Column>> columns,
    size_t num_rows, uint64_t data_version) {
  Table table(std::move(name));
  table.data_version_ = data_version;
  for (auto& column : columns) {
    if (column == nullptr || column->size() != num_rows) {
      return Status::InvalidArgument(strings::Format(
          "snapshot table %s: column size disagrees with row count %zu",
          table.name_.c_str(), num_rows));
    }
    if (table.ColumnIndex(column->name()) >= 0) {
      return Status::InvalidArgument("duplicate column: " + column->name());
    }
    table.columns_.push_back(std::move(column));
  }
  table.num_rows_ = num_rows;
  return table;
}

int Table::ColumnIndex(const std::string& name) const {
  std::string lower = strings::ToLower(name);
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (strings::ToLower(columns_[i]->name()) == lower) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

const Column* Table::FindColumn(const std::string& name) const {
  int idx = ColumnIndex(name);
  return idx < 0 ? nullptr : columns_[static_cast<size_t>(idx)].get();
}

Status Table::AddColumn(std::string column_name, ValueType type) {
  if (num_rows_ > 0) {
    return Status::InvalidArgument("cannot add column after rows");
  }
  if (ColumnIndex(column_name) >= 0) {
    return Status::InvalidArgument("duplicate column: " + column_name);
  }
  columns_.push_back(std::make_unique<Column>(std::move(column_name), type));
  return Status::OK();
}

Status Table::AddRow(std::vector<Value> row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(strings::Format(
        "row has %zu values, table has %zu columns", row.size(),
        columns_.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    columns_[i]->Append(std::move(row[i]));
  }
  ++num_rows_;
  return Status::OK();
}

Status Table::AppendRows(std::vector<std::vector<Value>> rows) {
  // Fires before any mutation: a faulted ingest leaves the table at its old
  // version with every version-keyed cache still valid.
  AGG_FAULT_POINT("data.ingest.append");
  // Validate the whole batch first so a bad row cannot leave the table
  // half-appended at a bumped version.
  for (auto& row : rows) {
    if (row.size() != columns_.size()) {
      return Status::InvalidArgument(strings::Format(
          "row has %zu values, table has %zu columns", row.size(),
          columns_.size()));
    }
    for (size_t i = 0; i < row.size(); ++i) {
      auto cell = CoerceForIngest(std::move(row[i]), columns_[i]->type());
      if (!cell.ok()) return cell.status();
      row[i] = *std::move(cell);
    }
  }
  if (rows.empty()) return Status::OK();
  for (auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      columns_[i]->Append(std::move(row[i]));
    }
    ++num_rows_;
  }
  ++data_version_;
  return Status::OK();
}

}  // namespace db
}  // namespace aggchecker
