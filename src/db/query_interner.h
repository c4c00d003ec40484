#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/query.h"

namespace aggchecker {
namespace db {

/// \brief Hash-consing store for query components and whole candidate
/// queries: columns, literal values, predicates, ordered predicate lists,
/// (function, column) aggregate slices, table sets, and dimension sets all
/// receive small dense integer ids, and a full Simple Aggregate Query is
/// identified by a packed 64-bit fingerprint (function | aggregation column
/// | predicate list — the table set is implied by the columns).
///
/// The point: candidate generation and cube planning used to rebuild and
/// compare strings (canonical keys, lower-cased column names, sorted table
/// lists) for every candidate on every EM iteration. With an interner the
/// translator ships integer query ids to the engine, equality is an integer
/// compare, grouping is integer hashing, and the SQL form is materialized
/// lazily — once per distinct query, for reporting and the executor
/// fallback paths.
///
/// Identity rules:
///  - Columns intern case-insensitively (the engine's grouping has always
///    lower-cased column keys); the first-seen spelling is kept for
///    materialization. All catalog-derived candidates share one spelling,
///    so encode -> materialize -> re-encode is the identity.
///  - Values intern by `Value::operator==` (numeric types coerce), matching
///    the literal dedup of the engine's plan phase.
///  - Predicate lists are ORDER-PRESERVING: ConditionalProbability treats
///    predicates[0] as the condition, so (A, B) and (B, A) are distinct
///    fingerprints. Order-insensitive grouping happens downstream via
///    dimension sets.
///
/// Not thread-safe: interning mutates shared tables. The engine and the
/// translator only intern from serial sections (batch assembly, plan
/// phase), per the engine's externally-single-threaded contract.
class QueryInterner {
 public:
  using Id = uint32_t;
  static constexpr Id kNone = 0xFFFFFFFFu;

  /// --- Component interning (all O(1) amortized) ---------------------
  Id InternColumn(const ColumnRef& column);
  Id InternValue(const Value& value);
  Id InternPredicate(const ColumnRef& column, const Value& value);
  /// Ordered predicate-id list (see identity rules above).
  Id InternPredList(const std::vector<Id>& pred_ids);
  /// (base aggregation function, column) pair — the unit the engine's cube
  /// result cache stores slices under.
  Id InternAggregate(AggFn fn, Id column_id);
  /// Canonical table set (sorted, lower-cased — RelationCache::KeyOf).
  Id InternTableSet(const std::vector<std::string>& tables);
  /// Ordered column-id list identifying a cube dimension set (callers pass
  /// the ids in the engine's canonical dimension order).
  Id InternDimSet(const std::vector<Id>& column_ids);

  /// --- Whole queries -------------------------------------------------
  /// Interns a candidate directly from its parts (the translator's path —
  /// no SimpleAggregateQuery is built). Materialization is deferred.
  Id InternCandidate(AggFn fn, Id agg_column_id, Id predlist_id);
  /// Interns a materialized query; consistent with InternCandidate (the
  /// same logical query yields the same id either way). The first
  /// materialization interned under a fingerprint is kept verbatim.
  Id InternQuery(const SimpleAggregateQuery& query);

  /// The materialized query (built lazily, cached; stable reference).
  const SimpleAggregateQuery& Materialize(Id query_id);

  /// --- Accessors ------------------------------------------------------
  const ColumnRef& column(Id column_id) const { return columns_[column_id]; }
  const Value& value(Id value_id) const { return values_[value_id]; }
  struct PredicateParts {
    Id column = kNone;
    Id value = kNone;
  };
  const PredicateParts& predicate(Id pred_id) const {
    return predicates_[pred_id];
  }
  const std::vector<Id>& pred_list(Id predlist_id) const {
    return pred_lists_.list(predlist_id);
  }
  struct AggregateParts {
    AggFn fn = AggFn::kCount;
    Id column = kNone;
  };
  const AggregateParts& aggregate(Id agg_id) const {
    return aggregates_[agg_id];
  }
  /// Canonical relation key of a table-set id (RelationCache::KeyOf form).
  const std::string& relation_key(Id table_set_id) const {
    return table_sets_[table_set_id];
  }
  const std::vector<Id>& dim_set(Id dimset_id) const {
    return dim_sets_.list(dimset_id);
  }
  /// The parts a query was interned from: function, aggregation column
  /// and ordered predicate list (its raw predicates).
  struct QueryParts {
    AggFn fn = AggFn::kCount;
    Id agg_column = kNone;
    Id predlist = kNone;
  };
  const QueryParts& query_parts(Id query_id) const {
    return queries_[query_id].parts;
  }

  size_t num_columns() const { return columns_.size(); }
  size_t num_predicates() const { return predicates_.size(); }
  size_t num_queries() const { return queries_.size(); }

 private:
  /// Hash-consed store of ordered small integer lists.
  class IdListInterner {
   public:
    Id Intern(const std::vector<Id>& ids);
    const std::vector<Id>& list(Id id) const { return lists_[id]; }

   private:
    struct ListHasher {
      size_t operator()(const std::vector<Id>& ids) const {
        size_t h = 1469598103934665603ull;
        for (Id id : ids) {
          h ^= id;
          h *= 1099511628211ull;
        }
        return h;
      }
    };
    std::unordered_map<std::vector<Id>, Id, ListHasher> index_;
    std::deque<std::vector<Id>> lists_;  ///< stable references
  };

  struct QueryRecord {
    QueryParts parts;
    /// Lazily materialized query (or the verbatim first query interned via
    /// InternQuery). std::deque storage keeps references stable.
    std::optional<SimpleAggregateQuery> query;
  };

  std::unordered_map<std::string, Id> column_index_;  ///< lower-cased key
  std::deque<ColumnRef> columns_;                     ///< first-seen form

  std::unordered_map<Value, Id, ValueHasher> value_index_;
  std::deque<Value> values_;

  std::unordered_map<uint64_t, Id> predicate_index_;  ///< col<<32 | value
  std::deque<PredicateParts> predicates_;

  IdListInterner pred_lists_;
  IdListInterner dim_sets_;

  std::unordered_map<uint64_t, Id> aggregate_index_;  ///< fn<<32 | column
  std::deque<AggregateParts> aggregates_;

  std::unordered_map<std::string, Id> table_set_index_;
  std::deque<std::string> table_sets_;  ///< canonical relation keys

  std::unordered_map<uint64_t, Id> query_index_;  ///< packed fingerprint
  std::deque<QueryRecord> queries_;
};

}  // namespace db
}  // namespace aggchecker
