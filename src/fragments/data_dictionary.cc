#include "fragments/data_dictionary.h"

#include "util/csv.h"
#include "util/strings.h"

namespace aggchecker {
namespace fragments {

std::string DataDictionary::KeyOf(const db::ColumnRef& column) {
  return strings::ToLower(column.table) + "." +
         strings::ToLower(column.column);
}

void DataDictionary::Add(const db::ColumnRef& column,
                         std::string description) {
  entries_[KeyOf(column)] = std::move(description);
}

const std::string& DataDictionary::Lookup(const db::ColumnRef& column) const {
  auto it = entries_.find(KeyOf(column));
  if (it != entries_.end()) return it->second;
  // Fall back to a table-agnostic entry.
  std::string any_table = ".";
  any_table += strings::ToLower(column.column);
  it = entries_.find(any_table);
  return it == entries_.end() ? empty_ : it->second;
}

Result<DataDictionary> DataDictionary::Parse(const std::string& csv_text) {
  auto data = csv::Parse(csv_text);
  if (!data.ok()) return data.status();
  if (data->header.size() < 3) {
    return Status::ParseError(
        "data dictionary needs columns: table, column, description");
  }
  DataDictionary dict;
  for (const auto& row : data->rows) {
    if (strings::Trim(row[1]).empty()) {
      return Status::ParseError("data dictionary entry with empty column");
    }
    dict.Add(db::ColumnRef{strings::Trim(row[0]), strings::Trim(row[1])},
             strings::Trim(row[2]));
  }
  return dict;
}

}  // namespace fragments
}  // namespace aggchecker
