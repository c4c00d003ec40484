#pragma once

#include <string>
#include <vector>

#include "db/aggregate.h"
#include "db/database.h"
#include "db/value.h"

namespace aggchecker {
namespace fragments {

/// The three query-fragment categories of §4.2.
enum class FragmentType {
  kAggFunction = 0,
  kAggColumn,
  kPredicate,
};

constexpr int kNumFragmentTypes = 3;

/// \brief A query fragment: an aggregation function, an aggregation column
/// (including the "*" all-column), or a unary equality predicate.
///
/// Fragments are the building blocks of candidate queries (§4.4) and the
/// unit of keyword indexing. Which members are meaningful depends on `type`.
struct QueryFragment {
  FragmentType type = FragmentType::kAggFunction;
  db::AggFn fn = db::AggFn::kCount;  ///< kAggFunction only
  db::ColumnRef column;              ///< kAggColumn (empty column = "*"),
                                     ///< kPredicate
  db::Value value;                   ///< kPredicate only

  bool is_star_column() const {
    return type == FragmentType::kAggColumn && column.column.empty();
  }
};

}  // namespace fragments
}  // namespace aggchecker
