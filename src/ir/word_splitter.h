#pragma once

#include <string>
#include <vector>

namespace aggchecker {
namespace ir {

/// \brief Decomposes identifier-style column names into word keywords
/// (§4.2: "Column names are often concatenations of multiple words and
/// abbreviations. We therefore decompose column names into all possible
/// substrings and compare against a dictionary.").
///
/// Handles snake_case, kebab-case, camelCase, digit boundaries, and — for
/// fully concatenated lower-case names like "nflsuspensions" — a
/// dictionary-driven segmentation that prefers fewer, longer words.
/// Unsplittable residue is kept as-is so exotic abbreviations still index.
class WordSplitter {
 public:
  /// Shared splitter with the built-in dictionary, the only one there is.
  static const WordSplitter& Default();

  /// Splits an identifier into lower-cased word parts.
  std::vector<std::string> Split(const std::string& identifier) const;

 private:
  WordSplitter() = default;

  void AddWord(const std::string& word);
  bool Contains(const std::string& word) const;

  /// Dictionary segmentation of a single lower-case run; returns {run} if no
  /// full segmentation into dictionary words exists.
  std::vector<std::string> SegmentRun(const std::string& run) const;

  std::vector<std::string> dictionary_;
};

}  // namespace ir
}  // namespace aggchecker
