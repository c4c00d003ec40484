#pragma once

#include <vector>

#include "claims/claim.h"
#include "claims/keyword_extractor.h"
#include "fragments/catalog.h"
#include "text/document.h"

namespace aggchecker {
namespace claims {

/// \brief Per-claim relevance scores: ranked fragments per category
/// (the observable variable S_c of the probabilistic model).
struct ClaimRelevance {
  std::vector<fragments::ScoredFragment> functions;
  std::vector<fragments::ScoredFragment> columns;
  std::vector<fragments::ScoredFragment> predicates;
};

/// \brief Implements Algorithm 1 (KeywordMatch): extracts claim keywords and
/// queries the fragment indexes, producing relevance scores per claim.
class RelevanceScorer {
 public:
  RelevanceScorer(const fragments::FragmentCatalog* catalog,
                  KeywordExtractor extractor, size_t hits_per_category)
      : catalog_(catalog),
        extractor_(std::move(extractor)),
        hits_(hits_per_category) {}

  ClaimRelevance Score(const text::TextDocument& doc,
                       const Claim& claim) const;

  /// Scores all claims of a document.
  std::vector<ClaimRelevance> ScoreAll(const text::TextDocument& doc,
                                       const std::vector<Claim>& claims) const;

 private:
  const fragments::FragmentCatalog* catalog_;
  KeywordExtractor extractor_;
  size_t hits_;
};

}  // namespace claims
}  // namespace aggchecker
