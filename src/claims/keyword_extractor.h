#pragma once

#include <vector>

#include "claims/claim.h"
#include "ir/inverted_index.h"
#include "ir/synonyms.h"
#include "text/document.h"

namespace aggchecker {
namespace claims {

/// \brief Keyword-context switches — the increments of the Figure 11 /
/// Table 5 keyword-context ablation. The full AggChecker enables all.
struct KeywordContextOptions {
  bool previous_sentence = true;  ///< sentence before the claim sentence
  bool paragraph_start = true;    ///< first sentence of the paragraph
  bool synonyms = true;           ///< synonym expansion of claim keywords
  bool headlines = true;          ///< enclosing section headlines + title

  static KeywordContextOptions ClaimSentenceOnly() {
    return KeywordContextOptions{false, false, false, false};
  }
};

/// \brief Implements Algorithm 2: extracts a weighted keyword set for a
/// claim from its sentence (weighted by approximated dependency-tree
/// distance) and surrounding context (previous sentence, paragraph start,
/// enclosing headlines, document title).
class KeywordExtractor {
 public:
  explicit KeywordExtractor(
      KeywordContextOptions options = {},
      const ir::SynonymDictionary* synonyms = &ir::SynonymDictionary::Default())
      : options_(options), synonyms_(synonyms) {}

  /// Weighted keywords for `claim`. Stop words and the claim's own numeric
  /// tokens are excluded; duplicate words keep their maximum weight before
  /// synonym expansion.
  std::vector<ir::InvertedIndex::TermWeight> Extract(
      const text::TextDocument& doc, const Claim& claim) const;

 private:
  KeywordContextOptions options_;
  const ir::SynonymDictionary* synonyms_;
};

}  // namespace claims
}  // namespace aggchecker
