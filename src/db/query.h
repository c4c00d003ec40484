#pragma once

#include <optional>
#include <string>
#include <vector>

#include "db/aggregate.h"
#include "db/database.h"
#include "db/value.h"
#include "util/status.h"

namespace aggchecker {
namespace db {

/// \brief A unary equality predicate `column = value` (Def. 2).
struct Predicate {
  ColumnRef column;
  Value value;

  bool operator==(const Predicate& other) const {
    return column == other.column && value == other.value;
  }
  std::string ToString() const {
    return column.ToString() + " = '" + value.ToString() + "'";
  }
};

/// \brief A Simple Aggregate Query (Definition 2).
///
/// SELECT fn(agg_column) FROM <tables joined along PK-FK paths>
/// WHERE p1 AND p2 AND ...
///
/// An empty `agg_column.column` denotes the "*" all-column (only valid with
/// Count). For ConditionalProbability, `predicates[0]` is the condition and
/// the remaining predicates form the event (footnote 1 of the paper).
struct SimpleAggregateQuery {
  AggFn fn = AggFn::kCount;
  ColumnRef agg_column;  ///< empty column name = "*"
  std::vector<Predicate> predicates;

  bool is_star() const { return agg_column.column.empty(); }

  bool operator==(const SimpleAggregateQuery& other) const;

  /// Canonical key: predicates sorted; used for caching and ground-truth
  /// comparison (two queries differing only in predicate order are the
  /// same query).
  std::string CanonicalKey() const;

  /// Parses a CanonicalKey back into a query (used by the corpus
  /// export/import round trip). Values are restored as strings or numbers
  /// by CSV-style type sniffing. Keys whose literals contain '|' or "='"
  /// are not representable and fail to parse.
  static Result<SimpleAggregateQuery> FromCanonicalKey(
      const std::string& key);

  /// Pretty SQL rendering for display and logs.
  std::string ToSql() const;

  /// All table names referenced by the aggregate or any predicate.
  std::vector<std::string> ReferencedTables() const;
};

}  // namespace db
}  // namespace aggchecker
