#include "db/executor.h"

#include <algorithm>

#include "db/joined_relation.h"
#include "db/relation_cache.h"
#include "util/fault_injection.h"
#include "util/strings.h"

namespace aggchecker {
namespace db {

namespace {

/// Scan loops charge the governor once per this many rows (matches the
/// governor's own amortized inspection interval).
constexpr size_t kGovernorBlockRows = ResourceGovernor::kCheckIntervalRows;

/// Charges the shard for the block of rows starting at `r`; called at
/// block boundaries inside scan loops. Returns the governor's stop Status
/// when a limit trips. Charging goes through a per-call shard so parallel
/// executors fold into the shared governor atomics once per block.
inline Status ChargeScanBlock(ResourceGovernor::Shard& shard, size_t r,
                              size_t num_rows) {
  if ((r % kGovernorBlockRows) != 0) return Status::OK();
  return shard.ChargeRows(
      std::min<uint64_t>(kGovernorBlockRows, num_rows - r));
}

/// Counts joined rows that satisfy the given predicates, counting rows whose
/// aggregation column is non-null (or all rows for "*").
Result<std::optional<double>> CountWithPredicates(
    const JoinedRelation& rel, bool star,
    const std::vector<Predicate>& predicates,
    const std::vector<JoinedRelation::Binding>& pred_bindings,
    const JoinedRelation::Binding& agg_binding, ScanStats* stats,
    ResourceGovernor::Shard& shard) {
  int64_t count = 0;
  const size_t num_rows = rel.num_rows();
  for (size_t r = 0; r < num_rows; ++r) {
    Status charge = ChargeScanBlock(shard, r, num_rows);
    if (!charge.ok()) return charge;
    bool match = true;
    for (size_t p = 0; p < predicates.size(); ++p) {
      const Value& cell = pred_bindings[p].at(r);
      if (cell.is_null() || !(cell == predicates[p].value)) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    if (!star && agg_binding.at(r).is_null()) continue;
    ++count;
  }
  if (stats != nullptr) stats->rows_scanned += rel.num_rows();
  return std::optional<double>(static_cast<double>(count));
}

}  // namespace

Status CheckQueryColumns(AggFn fn, const ColumnRef& agg_column,
                         const Column* agg, size_t num_predicates,
                         const ColumnRef* unknown_predicate) {
  if (agg_column.column.empty()) {
    if (fn != AggFn::kCount && fn != AggFn::kPercentage &&
        fn != AggFn::kConditionalProbability) {
      return Status::InvalidArgument(strings::Format(
          "%s requires an aggregation column", AggFnName(fn)));
    }
  } else {
    if (agg == nullptr) {
      return Status::NotFound("unknown aggregation column: " +
                              agg_column.ToString());
    }
    if (RequiresNumericColumn(fn) && !agg->is_numeric()) {
      return Status::InvalidArgument(strings::Format(
          "%s requires a numeric column, %s is %s", AggFnName(fn),
          agg_column.ToString().c_str(), ValueTypeName(agg->type())));
    }
  }
  if (fn == AggFn::kConditionalProbability && num_predicates == 0) {
    return Status::InvalidArgument(
        "ConditionalProbability requires at least one predicate (condition)");
  }
  if (unknown_predicate != nullptr) {
    return Status::NotFound("unknown predicate column: " +
                            unknown_predicate->ToString());
  }
  return Status::OK();
}

Status CheckQueryRelation(const Database& db,
                          const std::vector<std::string>& tables) {
  if (tables.empty()) {
    return Status::InvalidArgument("query references no table");
  }
  auto plan = db.JoinPlan(tables);
  return plan.ok() ? Status::OK() : plan.status();
}

Status QueryExecutor::Validate(const SimpleAggregateQuery& query) const {
  const ColumnRef* unknown_predicate = nullptr;
  for (const Predicate& p : query.predicates) {
    if (db_->FindColumn(p.column) == nullptr) {
      unknown_predicate = &p.column;
      break;
    }
  }
  Status columns = CheckQueryColumns(
      query.fn, query.agg_column,
      query.is_star() ? nullptr : db_->FindColumn(query.agg_column),
      query.predicates.size(), unknown_predicate);
  if (!columns.ok()) return columns;
  return CheckQueryRelation(*db_, query.ReferencedTables());
}

Result<std::optional<double>> QueryExecutor::Execute(
    const SimpleAggregateQuery& query, ScanStats* stats,
    const ResourceGovernor* governor, RelationCache* relation_cache) const {
  AGG_FAULT_POINT("executor.execute");
  Status valid = Validate(query);
  if (!valid.ok()) return valid;

  // One charge shard per Execute call: callers run at most one Execute per
  // thread at a time, so this doubles as the per-thread shard.
  ResourceGovernor::Shard shard(governor);

  // The materialized join's row-index arrays are modeled evaluation state;
  // AcquireOrBuildRelation charges them against the governor's memory
  // budget (once per cached relation per run, or per build when uncached;
  // zero for single-table queries, which materialize nothing).
  auto tables = query.ReferencedTables();
  RelationCache::AcquireInfo join_info;
  auto rel_result = AcquireOrBuildRelation(relation_cache, *db_, tables,
                                           shard, &join_info);
  if (stats != nullptr) {
    stats->joins_built += join_info.built ? 1 : 0;
    stats->join_cache_hits += join_info.hit ? 1 : 0;
    stats->join_seconds += join_info.build_seconds;
  }
  if (!rel_result.ok()) return rel_result.status();
  const JoinedRelation& rel = **rel_result;

  JoinedRelation::Binding agg_binding;
  if (!query.is_star()) {
    auto b = rel.Bind(query.agg_column);
    if (!b.ok()) return b.status();
    agg_binding = *b;
  }
  std::vector<JoinedRelation::Binding> pred_bindings;
  pred_bindings.reserve(query.predicates.size());
  for (const Predicate& p : query.predicates) {
    auto b = rel.Bind(p.column);
    if (!b.ok()) return b.status();
    pred_bindings.push_back(*b);
  }

  // Ratio aggregates: quotient of two counts (footnote 1 / §4.4).
  if (query.fn == AggFn::kPercentage ||
      query.fn == AggFn::kConditionalProbability) {
    auto num = CountWithPredicates(rel, query.is_star(), query.predicates,
                                   pred_bindings, agg_binding, stats, shard);
    if (!num.ok()) return num.status();

    std::vector<Predicate> denom_preds;
    std::vector<JoinedRelation::Binding> denom_bindings;
    if (query.fn == AggFn::kConditionalProbability) {
      // Denominator restricted to the condition (first predicate) only.
      denom_preds.push_back(query.predicates[0]);
      denom_bindings.push_back(pred_bindings[0]);
    } else {
      // Percentage: denominator drops predicates on the percentage column.
      for (size_t i = 0; i < query.predicates.size(); ++i) {
        bool on_agg_column =
            !query.is_star() &&
            query.predicates[i].column == query.agg_column;
        if (!on_agg_column) {
          denom_preds.push_back(query.predicates[i]);
          denom_bindings.push_back(pred_bindings[i]);
        }
      }
    }
    auto den = CountWithPredicates(rel, query.is_star(), denom_preds,
                                   denom_bindings, agg_binding, stats, shard);
    if (!den.ok()) return den.status();
    double d = den->value_or(0.0);
    if (d == 0.0) return std::optional<double>(std::nullopt);
    return std::optional<double>(num->value_or(0.0) * 100.0 / d);
  }

  // Fires once per aggregate scan, after validation and join acquisition —
  // a path every strategy shares, so injected faults here exercise
  // quarantine (no ladder rung avoids it) rather than ladder recovery.
  AGG_FAULT_POINT("executor.scan");
  Aggregator agg(query.fn);
  const Value star_placeholder(static_cast<int64_t>(1));
  const size_t num_rows = rel.num_rows();
  for (size_t r = 0; r < num_rows; ++r) {
    Status charge = ChargeScanBlock(shard, r, num_rows);
    if (!charge.ok()) return charge;
    bool match = true;
    for (size_t p = 0; p < query.predicates.size(); ++p) {
      const Value& cell = pred_bindings[p].at(r);
      if (cell.is_null() || !(cell == query.predicates[p].value)) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    agg.Add(query.is_star() ? star_placeholder : agg_binding.at(r));
  }
  if (stats != nullptr) stats->rows_scanned += rel.num_rows();
  return agg.Finish();
}

}  // namespace db
}  // namespace aggchecker
