#include "model/priors.h"

#include <algorithm>
#include <cmath>

namespace aggchecker {
namespace model {

Priors Priors::Uniform(const fragments::FragmentCatalog& catalog) {
  Priors p;
  p.fn_.assign(db::kNumAggFns, 1.0 / db::kNumAggFns);
  size_t num_cols =
      catalog.fragments(fragments::FragmentType::kAggColumn).size();
  p.agg_col_.assign(std::max<size_t>(num_cols, 1), 1.0 / std::max<size_t>(
                                                             num_cols, 1));
  size_t num_restrict = catalog.predicate_columns().size();
  // Bernoulli-uniform restriction prior: before any evidence, a column is
  // as likely to be restricted as not.
  p.restrict_.assign(std::max<size_t>(num_restrict, 1), 0.5);
  return p;
}

Priors Priors::FromMlQueries(
    const std::vector<db::SimpleAggregateQuery>& ml_queries,
    const fragments::FragmentCatalog& catalog, double smoothing) {
  Priors p = Uniform(catalog);
  const double n = static_cast<double>(ml_queries.size());
  if (n == 0) return p;

  // Aggregation functions.
  std::vector<double> fn_counts(db::kNumAggFns, 0.0);
  for (const auto& q : ml_queries) {
    fn_counts[static_cast<size_t>(q.fn)] += 1.0;
  }
  double fn_denom = n + smoothing * db::kNumAggFns;
  for (size_t i = 0; i < p.fn_.size(); ++i) {
    p.fn_[i] = (fn_counts[i] + smoothing) / fn_denom;
  }

  // Aggregation columns.
  std::vector<double> col_counts(p.agg_col_.size(), 0.0);
  for (const auto& q : ml_queries) {
    int idx = catalog.AggColumnIndex(q.agg_column);
    if (idx >= 0) col_counts[static_cast<size_t>(idx)] += 1.0;
  }
  double col_denom = n + smoothing * static_cast<double>(p.agg_col_.size());
  for (size_t i = 0; i < p.agg_col_.size(); ++i) {
    p.agg_col_[i] = (col_counts[i] + smoothing) / col_denom;
  }

  // Restriction columns: fraction of ML queries restricting each column.
  std::vector<double> restrict_counts(p.restrict_.size(), 0.0);
  for (const auto& q : ml_queries) {
    for (const db::Predicate& pred : q.predicates) {
      int idx = catalog.PredicateColumnIndex(pred.column);
      if (idx >= 0) restrict_counts[static_cast<size_t>(idx)] += 1.0;
    }
  }
  for (size_t i = 0; i < p.restrict_.size(); ++i) {
    p.restrict_[i] =
        (restrict_counts[i] + smoothing) / (n + 2.0 * smoothing);
  }
  return p;
}

double Priors::MaxDelta(const Priors& other) const {
  double delta = 0.0;
  auto scan = [&delta](const std::vector<double>& a,
                       const std::vector<double>& b) {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      delta = std::max(delta, std::fabs(a[i] - b[i]));
    }
  };
  scan(fn_, other.fn_);
  scan(agg_col_, other.agg_col_);
  scan(restrict_, other.restrict_);
  return delta;
}

}  // namespace model
}  // namespace aggchecker
