#pragma once

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "db/value.h"

namespace aggchecker {
namespace db {

/// Aggregation functions supported by Simple Aggregate Queries (§2).
///
/// Percentage and ConditionalProbability are ratio aggregates defined in the
/// paper's footnote 1; the executor derives them from two count evaluations.
enum class AggFn {
  kCount = 0,
  kCountDistinct,
  kSum,
  kAvg,
  kMin,
  kMax,
  kPercentage,
  kConditionalProbability,
};

constexpr int kNumAggFns = 8;

/// SQL-ish display name ("Count", "CountDistinct", ...).
const char* AggFnName(AggFn fn);

/// All supported aggregation functions, in enum order.
const std::vector<AggFn>& AllAggFns();

/// Keywords associated with an aggregation-function query fragment (§4.2):
/// function name plus natural-language cue words ("number", "how many",
/// "total", "average", "typical", ...).
const std::vector<std::string>& AggFnKeywords(AggFn fn);

/// True if the function needs a specific aggregation column (Count accepts
/// the "*" all-column; the others need a real column).
bool RequiresColumn(AggFn fn);

/// True if the aggregation column must be numeric (Sum/Avg/Min/Max); Count,
/// CountDistinct, Percentage and ConditionalProbability accept any type.
bool RequiresNumericColumn(AggFn fn);

/// \brief Streaming accumulator for the five base aggregates.
///
/// Percentage/ConditionalProbability are not accumulated directly: the
/// engine computes them as ratios of Count results.
class Aggregator {
 public:
  explicit Aggregator(AggFn fn) : fn_(fn) {}

  /// Feeds one cell value (NULL cells are ignored per SQL semantics, except
  /// Count(*) which the caller feeds with non-null placeholders).
  void Add(const Value& v);

  /// Final aggregate; nullopt when undefined. Undefined covers Avg/Sum of
  /// no rows, but also any Sum/Avg/Min/Max that saw a NaN/Inf input or
  /// whose running sum overflowed to +-Inf: a claim verdict must never be
  /// decided by IEEE saturation artifacts, so poisoned aggregates are
  /// treated exactly like empty ones. (Count cannot overflow: it advances
  /// once per row and int64 outlives any materializable relation.)
  std::optional<double> Finish() const;

  int64_t count() const { return count_; }

 private:
  AggFn fn_;
  int64_t count_ = 0;
  double sum_ = 0;
  bool poisoned_ = false;  ///< saw a non-finite input value
  std::optional<double> min_;
  std::optional<double> max_;
  std::unordered_set<Value, ValueHasher> distinct_;
  /// NaN cells seen by CountDistinct, kept out of `distinct_`: each one is
  /// a value of its own (NaN equals nothing), and since every NaN hashes
  /// alike, inserting them would make each insert walk all the earlier ones.
  size_t distinct_nans_ = 0;
};

}  // namespace db
}  // namespace aggchecker
