#include "db/query_interner.h"

#include "db/relation_cache.h"
#include "util/strings.h"

namespace aggchecker {
namespace db {

namespace {

constexpr int kColumnBits = 28;
constexpr int kPredListBits = 28;
constexpr uint64_t kColumnMask = (uint64_t{1} << kColumnBits) - 1;
constexpr uint64_t kPredListMask = (uint64_t{1} << kPredListBits) - 1;

uint64_t PackFingerprint(AggFn fn, QueryInterner::Id agg_column,
                         QueryInterner::Id predlist) {
  return (uint64_t{static_cast<uint8_t>(fn)} << (kColumnBits + kPredListBits)) |
         ((uint64_t{agg_column} & kColumnMask) << kPredListBits) |
         (uint64_t{predlist} & kPredListMask);
}

}  // namespace

QueryInterner::Id QueryInterner::IdListInterner::Intern(
    const std::vector<Id>& ids) {
  auto it = index_.find(ids);
  if (it != index_.end()) return it->second;
  Id id = static_cast<Id>(lists_.size());
  lists_.push_back(ids);
  index_.emplace(ids, id);
  return id;
}

QueryInterner::Id QueryInterner::InternColumn(const ColumnRef& column) {
  std::string key = strings::ToLower(column.ToString());
  auto it = column_index_.find(key);
  if (it != column_index_.end()) return it->second;
  Id id = static_cast<Id>(columns_.size());
  columns_.push_back(column);
  column_index_.emplace(std::move(key), id);
  return id;
}

QueryInterner::Id QueryInterner::InternValue(const Value& value) {
  auto it = value_index_.find(value);
  if (it != value_index_.end()) return it->second;
  Id id = static_cast<Id>(values_.size());
  values_.push_back(value);
  value_index_.emplace(value, id);
  return id;
}

QueryInterner::Id QueryInterner::InternPredicate(const ColumnRef& column,
                                                 const Value& value) {
  Id col = InternColumn(column);
  Id val = InternValue(value);
  uint64_t key = (uint64_t{col} << 32) | uint64_t{val};
  auto it = predicate_index_.find(key);
  if (it != predicate_index_.end()) return it->second;
  Id id = static_cast<Id>(predicates_.size());
  predicates_.push_back(PredicateParts{col, val});
  predicate_index_.emplace(key, id);
  return id;
}

QueryInterner::Id QueryInterner::InternPredList(
    const std::vector<Id>& pred_ids) {
  return pred_lists_.Intern(pred_ids);
}

QueryInterner::Id QueryInterner::InternAggregate(AggFn fn, Id column_id) {
  uint64_t key = (uint64_t{static_cast<uint8_t>(fn)} << 32) |
                 uint64_t{column_id};
  auto it = aggregate_index_.find(key);
  if (it != aggregate_index_.end()) return it->second;
  Id id = static_cast<Id>(aggregates_.size());
  aggregates_.push_back(AggregateParts{fn, column_id});
  aggregate_index_.emplace(key, id);
  return id;
}

QueryInterner::Id QueryInterner::InternTableSet(
    const std::vector<std::string>& tables) {
  std::string key = RelationCache::KeyOf(tables);
  auto it = table_set_index_.find(key);
  if (it != table_set_index_.end()) return it->second;
  Id id = static_cast<Id>(table_sets_.size());
  table_sets_.push_back(key);
  table_set_index_.emplace(std::move(key), id);
  return id;
}

QueryInterner::Id QueryInterner::InternDimSet(
    const std::vector<Id>& column_ids) {
  return dim_sets_.Intern(column_ids);
}

QueryInterner::Id QueryInterner::InternCandidate(AggFn fn, Id agg_column_id,
                                                 Id predlist_id) {
  uint64_t fp = PackFingerprint(fn, agg_column_id, predlist_id);
  auto it = query_index_.find(fp);
  if (it != query_index_.end()) return it->second;
  Id id = static_cast<Id>(queries_.size());
  QueryRecord rec;
  rec.fn = fn;
  rec.agg_column = agg_column_id;
  rec.predlist = predlist_id;
  queries_.push_back(std::move(rec));
  query_index_.emplace(fp, id);
  return id;
}

QueryInterner::Id QueryInterner::InternQuery(
    const SimpleAggregateQuery& query) {
  Id agg_col = InternColumn(query.agg_column);
  std::vector<Id> pred_ids;
  pred_ids.reserve(query.predicates.size());
  for (const Predicate& p : query.predicates) {
    pred_ids.push_back(InternPredicate(p.column, p.value));
  }
  Id predlist = InternPredList(pred_ids);
  Id id = InternCandidate(query.fn, agg_col, predlist);
  if (!queries_[id].query.has_value()) queries_[id].query = query;
  return id;
}

const SimpleAggregateQuery& QueryInterner::Materialize(Id query_id) {
  QueryRecord& rec = queries_[query_id];
  if (!rec.query.has_value()) {
    SimpleAggregateQuery q;
    q.fn = rec.fn;
    q.agg_column = columns_[rec.agg_column];
    const std::vector<Id>& preds = pred_lists_.list(rec.predlist);
    q.predicates.reserve(preds.size());
    for (Id pid : preds) {
      const PredicateParts& parts = predicates_[pid];
      q.predicates.push_back(
          Predicate{columns_[parts.column], values_[parts.value]});
    }
    rec.query = std::move(q);
  }
  return *rec.query;
}

}  // namespace db
}  // namespace aggchecker
