#pragma once

#include <string>
#include <unordered_map>
#include <vector>

namespace aggchecker {
namespace ir {

/// \brief Hand-curated synonym dictionary standing in for WordNet (§4.2).
///
/// Maps a word to its synonym set. Groups are symmetric: every member of a
/// group maps to all other members. The vocabulary is curated for the
/// corpus domains (sports, politics, surveys, economics, entertainment)
/// plus generic data-summary terms; see DESIGN.md §1 for why this
/// substitution preserves the keyword-context ablation behaviour.
class SynonymDictionary {
 public:
  /// The built-in dictionary (shared, immutable).
  static const SynonymDictionary& Default();

  SynonymDictionary() = default;

  /// Registers a symmetric synonym group.
  void AddGroup(const std::vector<std::string>& words);

  /// Synonyms of `word` (excluding the word itself); empty if unknown.
  const std::vector<std::string>& Lookup(const std::string& word) const;

 private:
  std::unordered_map<std::string, std::vector<std::string>> map_;
  std::vector<std::string> empty_;
};

}  // namespace ir
}  // namespace aggchecker
