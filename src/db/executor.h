#pragma once

#include <optional>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/query.h"
#include "util/resource_governor.h"
#include "util/status.h"

namespace aggchecker {
namespace db {

class RelationCache;

/// \brief Statistics about executed scans (shared by naive and cube paths).
struct ScanStats {
  size_t rows_scanned = 0;
  /// Join-layer counters: materializations performed vs. served from the
  /// RelationCache, and the wall time spent building joins. Kept out of the
  /// determinism fingerprint (like all wall-clock fields, and because a
  /// warm cache legitimately builds fewer joins than a cold one).
  size_t joins_built = 0;
  size_t join_cache_hits = 0;
  double join_seconds = 0.0;
};

/// \brief The schema rules a Simple Aggregate Query must meet, over its parts
/// already resolved against the database. The one copy of the rules:
/// QueryExecutor::Validate resolves a materialized query by name, and
/// EvalEngine resolves each interned column and table set once; both apply
/// CheckQueryColumns, then CheckQueryRelation.
///
/// The column rules: "*" aggregates only under Count, Percentage and
/// ConditionalProbability; a named aggregation column must exist (`agg`,
/// null when unknown; unread for "*") and be numeric under Sum, Avg, Min
/// and Max; ConditionalProbability needs a predicate (its condition); and
/// every predicate column must exist (`unknown_predicate` is the first one
/// that does not, or null).
Status CheckQueryColumns(AggFn fn, const ColumnRef& agg_column,
                         const Column* agg, size_t num_predicates,
                         const ColumnRef* unknown_predicate);

/// The relation rule: the referenced tables (SimpleAggregateQuery::
/// ReferencedTables) are not empty, and the join graph connects them.
Status CheckQueryRelation(const Database& db,
                          const std::vector<std::string>& tables);

/// \brief Reference single-query executor (the "naive" strategy of Table 6).
///
/// Each call materializes the join and scans it once (twice for the ratio
/// aggregates Percentage and ConditionalProbability, which are quotients of
/// two counts per footnote 1 of the paper).
class QueryExecutor {
 public:
  explicit QueryExecutor(const Database* db) : db_(db) {}

  /// Evaluates `query`. Returns nullopt inside the Result when the aggregate
  /// is undefined (empty input for Avg/Min/Max, zero denominator for ratio
  /// aggregates); returns an error Status for malformed queries (unknown
  /// columns, non-numeric Sum target, unreachable join).
  ///
  /// When `governor` is non-null, scan loops charge it in
  /// ResourceGovernor::kCheckIntervalRows blocks and the call returns the
  /// governor's kDeadlineExceeded / kBudgetExhausted Status when a limit
  /// trips mid-scan (cooperative cancellation).
  ///
  /// When `relation_cache` is non-null the joined relation is acquired
  /// through it (built at most once per distinct table set, its modeled
  /// bytes charged once per governor run); otherwise each call builds and
  /// charges its own join — the pre-cache reference behavior, kept for
  /// differential testing.
  Result<std::optional<double>> Execute(
      const SimpleAggregateQuery& query, ScanStats* stats = nullptr,
      const ResourceGovernor* governor = nullptr,
      RelationCache* relation_cache = nullptr) const;

  /// Validates a query against the schema without executing it: resolves
  /// its columns by name and applies CheckQueryColumns and
  /// CheckQueryRelation.
  Status Validate(const SimpleAggregateQuery& query) const;

 private:
  const Database* db_;
};

}  // namespace db
}  // namespace aggchecker
