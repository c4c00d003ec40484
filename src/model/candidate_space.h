#pragma once

#include <vector>

#include "claims/relevance_scorer.h"
#include "db/database.h"
#include "db/query.h"
#include "fragments/catalog.h"
#include "model/options.h"

namespace aggchecker {
namespace model {

/// Maximum predicates per candidate query (m = 3 in §6.3).
constexpr int kMaxPredicates = 3;

/// \brief One considered fragment option with its normalized (smoothed)
/// relevance score — the factor Pr(S^X_c | Q_c) contributes for picking it.
struct ScoredOption {
  int frag = -1;            ///< index into the catalog's fragment list
  double norm_score = 0.0;  ///< smoothed score / category sum
};

/// \brief A set of predicate fragments on pairwise distinct columns.
struct PredicateSubset {
  std::vector<int> frags;          ///< predicate fragment indexes
  std::vector<int> restrict_cols;  ///< catalog predicate-column indexes
  double norm_score = 1.0;         ///< product of normalized pred scores
};

/// \brief The candidate-query space of one claim (§4.4): the cross product
/// of considered aggregation functions, aggregation columns, and predicate
/// subsets. Candidates are addressed by (function, column, subset) position
/// and materialized into SQL queries on demand — the space routinely holds
/// tens of thousands of candidates per claim.
class CandidateSpace {
 public:
  static CandidateSpace Build(const db::Database& db,
                              const fragments::FragmentCatalog& catalog,
                              const claims::ClaimRelevance& relevance,
                              const ModelOptions& options);

  const std::vector<ScoredOption>& functions() const { return functions_; }
  const std::vector<ScoredOption>& columns() const { return columns_; }
  const std::vector<PredicateSubset>& subsets() const { return subsets_; }

  /// False for invalid pairings (numeric aggregate over a text column,
  /// "*" with a non-count function, ConditionalProbability without a
  /// condition predicate).
  bool Valid(size_t f, size_t c, size_t s) const;

  /// Keyword likelihood Pr(S_c | Q_c) of candidate (f, c, s).
  double KeywordScore(size_t f, size_t c, size_t s) const {
    return functions_[f].norm_score * columns_[c].norm_score *
           subsets_[s].norm_score;
  }

  /// Materializes candidate (f, c, s) into a query.
  db::SimpleAggregateQuery Materialize(
      size_t f, size_t c, size_t s,
      const fragments::FragmentCatalog& catalog) const;

  /// Number of (valid or not) candidate triples.
  size_t TotalCandidates() const {
    return functions_.size() * columns_.size() * subsets_.size();
  }

 private:
  std::vector<ScoredOption> functions_;
  std::vector<ScoredOption> columns_;
  std::vector<PredicateSubset> subsets_;
  // compat_[f * columns.size() + c]: (function, column) pairing allowed.
  std::vector<bool> compat_;
  std::vector<bool> fn_needs_predicate_;  // per considered function
};

}  // namespace model
}  // namespace aggchecker
