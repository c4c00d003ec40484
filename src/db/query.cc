#include "db/query.h"

#include <algorithm>
#include <set>

#include "util/strings.h"

namespace aggchecker {
namespace db {

namespace {
std::vector<std::string> SortedPredicateKeys(
    const std::vector<Predicate>& preds) {
  std::vector<std::string> keys;
  keys.reserve(preds.size());
  for (const auto& p : preds) {
    keys.push_back(p.column.ToString() + "='" + p.value.ToString() + "'");
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}
}  // namespace

bool SimpleAggregateQuery::operator==(
    const SimpleAggregateQuery& other) const {
  if (fn != other.fn || !(agg_column == other.agg_column)) return false;
  if (predicates.size() != other.predicates.size()) return false;
  // ConditionalProbability is order-sensitive in its first predicate.
  if (fn == AggFn::kConditionalProbability) {
    if (!predicates.empty() && !(predicates[0] == other.predicates[0])) {
      return false;
    }
  }
  return SortedPredicateKeys(predicates) ==
         SortedPredicateKeys(other.predicates);
}

std::string SimpleAggregateQuery::CanonicalKey() const {
  std::string key = AggFnName(fn);
  key += '(';
  key += is_star() ? agg_column.table + ".*" : agg_column.ToString();
  key += ')';
  if (fn == AggFn::kConditionalProbability && !predicates.empty()) {
    key += "|cond:" + predicates[0].column.ToString() + "='" +
           predicates[0].value.ToString() + "'";
  }
  for (const auto& pk : SortedPredicateKeys(predicates)) {
    key += '|';
    key += pk;
  }
  return key;
}

std::string SimpleAggregateQuery::ToSql() const {
  std::string sql = "SELECT ";
  sql += AggFnName(fn);
  sql += '(';
  sql += is_star() ? "*" : agg_column.column;
  sql += ") FROM ";
  auto tables = ReferencedTables();
  for (size_t i = 0; i < tables.size(); ++i) {
    if (i > 0) sql += " E-JOIN ";
    sql += tables[i];
  }
  if (!predicates.empty()) {
    sql += " WHERE ";
    for (size_t i = 0; i < predicates.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += predicates[i].column.column + " = '" +
             predicates[i].value.ToString() + "'";
    }
  }
  return sql;
}

std::vector<std::string> SimpleAggregateQuery::ReferencedTables() const {
  std::set<std::string> seen;
  std::vector<std::string> tables;
  auto add = [&](const std::string& t) {
    if (!t.empty() && seen.insert(t).second) tables.push_back(t);
  };
  add(agg_column.table);
  for (const auto& p : predicates) add(p.column.table);
  return tables;
}

namespace {

Result<std::pair<ColumnRef, Value>> ParseKeyPredicate(
    const std::string& piece) {
  // Format: table.column='value'
  size_t eq = piece.find("='");
  if (eq == std::string::npos || piece.empty() || piece.back() != '\'') {
    return Status::ParseError("bad predicate piece: " + piece);
  }
  std::string col_part = piece.substr(0, eq);
  std::string value_raw = piece.substr(eq + 2, piece.size() - eq - 3);
  size_t dot = col_part.find('.');
  if (dot == std::string::npos) {
    return Status::ParseError("predicate column missing table: " + col_part);
  }
  ColumnRef column{col_part.substr(0, dot), col_part.substr(dot + 1)};
  return std::make_pair(column, ParseCell(value_raw));
}

std::optional<AggFn> AggFnByName(const std::string& name) {
  for (AggFn fn : AllAggFns()) {
    if (name == AggFnName(fn)) return fn;
  }
  return std::nullopt;
}

}  // namespace

Result<SimpleAggregateQuery> SimpleAggregateQuery::FromCanonicalKey(
    const std::string& key) {
  size_t open = key.find('(');
  size_t close = key.find(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    return Status::ParseError("malformed canonical key: " + key);
  }
  SimpleAggregateQuery q;
  auto fn = AggFnByName(key.substr(0, open));
  if (!fn.has_value()) {
    return Status::ParseError("unknown aggregation function in key: " + key);
  }
  q.fn = *fn;
  std::string target = key.substr(open + 1, close - open - 1);
  if (target != "*") {
    size_t dot = target.find('.');
    if (dot == std::string::npos) {
      return Status::ParseError("aggregation column missing table: " +
                                target);
    }
    std::string column = target.substr(dot + 1);
    if (column == "*") column.clear();  // "table.*" star form
    q.agg_column = ColumnRef{target.substr(0, dot), std::move(column)};
  }

  std::string rest = key.substr(close + 1);
  std::optional<Predicate> condition;
  size_t pos = 0;
  while (pos < rest.size()) {
    if (rest[pos] != '|') {
      return Status::ParseError("malformed canonical key tail: " + rest);
    }
    size_t next = rest.find('|', pos + 1);
    std::string piece = rest.substr(
        pos + 1, next == std::string::npos ? std::string::npos
                                           : next - pos - 1);
    pos = next == std::string::npos ? rest.size() : next;
    if (strings::StartsWith(piece, "cond:")) {
      auto parsed = ParseKeyPredicate(piece.substr(5));
      if (!parsed.ok()) return parsed.status();
      condition = Predicate{parsed->first, parsed->second};
      continue;
    }
    auto parsed = ParseKeyPredicate(piece);
    if (!parsed.ok()) return parsed.status();
    q.predicates.push_back(Predicate{parsed->first, parsed->second});
  }
  // ConditionalProbability: the condition must come first; it is also
  // listed among the sorted predicates, so just reorder.
  if (condition.has_value()) {
    for (size_t i = 0; i < q.predicates.size(); ++i) {
      if (q.predicates[i] == *condition) {
        std::swap(q.predicates[0], q.predicates[i]);
        break;
      }
    }
  }
  // Resolve the star target's table from predicates when possible.
  if (q.is_star() && q.agg_column.table.empty() && !q.predicates.empty()) {
    q.agg_column.table = q.predicates[0].column.table;
  }
  return q;
}

}  // namespace db
}  // namespace aggchecker
