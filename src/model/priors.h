#pragma once

#include <vector>

#include "db/query.h"
#include "fragments/catalog.h"

namespace aggchecker {
namespace model {

/// \brief Document-specific prior parameters Θ (§5.2).
///
/// One multinomial over aggregation functions, one over aggregation-column
/// fragments, and an independent Bernoulli per predicate column. Function
/// and column priors sum to one; restriction priors do not (a query may
/// restrict several columns).
class Priors {
 public:
  /// Uniform initialization for a catalog's fragment space (line 6 of
  /// Algorithm 3).
  static Priors Uniform(const fragments::FragmentCatalog& catalog);

  double fn_prior(db::AggFn fn) const {
    return fn_[static_cast<size_t>(fn)];
  }
  double agg_col_prior(int fragment_index) const {
    return agg_col_[static_cast<size_t>(fragment_index)];
  }
  double restrict_prior(int column_index) const {
    return restrict_[static_cast<size_t>(column_index)];
  }

  /// \brief Maximization step (line 17 of Algorithm 3): re-estimates each
  /// component as the (Laplace-smoothed) fraction of maximum-likelihood
  /// queries with the corresponding property.
  static Priors FromMlQueries(
      const std::vector<db::SimpleAggregateQuery>& ml_queries,
      const fragments::FragmentCatalog& catalog, double smoothing = 0.5);

  /// Largest absolute component change versus `other` (convergence test).
  double MaxDelta(const Priors& other) const;

  size_t num_agg_col_components() const { return agg_col_.size(); }
  size_t num_restrict_components() const { return restrict_.size(); }

 private:
  std::vector<double> fn_;        // per AggFn
  std::vector<double> agg_col_;   // per agg-column fragment
  std::vector<double> restrict_;  // per predicate column
};

}  // namespace model
}  // namespace aggchecker
