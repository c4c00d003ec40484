#include "ir/porter_stemmer.h"

#include <cctype>

namespace aggchecker {
namespace ir {

namespace {

/// Working buffer for the Porter algorithm, operating in place on the word.
class Stemmer {
 public:
  explicit Stemmer(std::string word) : b_(std::move(word)) {}

  std::string Run() {
    if (b_.size() < 3) return b_;
    Step1a();
    Step1b();
    Step1c();
    Step2();
    Step3();
    Step4();
    Step5a();
    Step5b();
    return b_;
  }

 private:
  bool IsConsonant(size_t i) const {
    switch (b_[i]) {
      case 'a':
      case 'e':
      case 'i':
      case 'o':
      case 'u':
        return false;
      case 'y':
        return i == 0 ? true : !IsConsonant(i - 1);
      default:
        return true;
    }
  }

  /// Measure m of the stem b_[0..end): number of VC sequences.
  int Measure(size_t end) const {
    int m = 0;
    size_t i = 0;
    // skip initial consonants
    while (i < end && IsConsonant(i)) ++i;
    while (true) {
      while (i < end && !IsConsonant(i)) ++i;
      if (i >= end) return m;
      ++m;
      while (i < end && IsConsonant(i)) ++i;
      if (i >= end) return m;
    }
  }

  bool HasVowel(size_t end) const {
    for (size_t i = 0; i < end; ++i) {
      if (!IsConsonant(i)) return true;
    }
    return false;
  }

  bool EndsWith(std::string_view suffix) const {
    return b_.size() >= suffix.size() &&
           b_.compare(b_.size() - suffix.size(), suffix.size(), suffix) == 0;
  }

  /// Stem length if `suffix` were removed.
  size_t StemLen(std::string_view suffix) const {
    return b_.size() - suffix.size();
  }

  bool DoubleConsonant() const {
    size_t n = b_.size();
    if (n < 2) return false;
    return b_[n - 1] == b_[n - 2] && IsConsonant(n - 1);
  }

  /// cvc pattern at the end, where the final c is not w, x, or y.
  bool CvcEnd(size_t end) const {
    if (end < 3) return false;
    if (!IsConsonant(end - 3) || IsConsonant(end - 2) ||
        !IsConsonant(end - 1)) {
      return false;
    }
    char c = b_[end - 1];
    return c != 'w' && c != 'x' && c != 'y';
  }

  /// Replaces `suffix` (must match) with `repl`.
  void Replace(std::string_view suffix, std::string_view repl) {
    b_.replace(b_.size() - suffix.size(), suffix.size(), repl);
  }

  /// If the word ends with `suffix` and the remaining stem has measure > m,
  /// replaces it with `repl` and returns true. Returns true (without
  /// replacing) also when the suffix matched but the condition failed, so
  /// rule chains stop at the first matching suffix, per the algorithm.
  bool Rule(std::string_view suffix, std::string_view repl, int m) {
    if (!EndsWith(suffix)) return false;
    if (Measure(StemLen(suffix)) > m) Replace(suffix, repl);
    return true;
  }

  void Step1a() {
    if (EndsWith("sses")) {
      Replace("sses", "ss");
    } else if (EndsWith("ies")) {
      Replace("ies", "i");
    } else if (EndsWith("ss")) {
      // keep
    } else if (EndsWith("s")) {
      Replace("s", "");
    }
  }

  void Step1b() {
    bool second_third = false;
    if (EndsWith("eed")) {
      if (Measure(StemLen("eed")) > 0) Replace("eed", "ee");
    } else if (EndsWith("ed")) {
      if (HasVowel(StemLen("ed"))) {
        Replace("ed", "");
        second_third = true;
      }
    } else if (EndsWith("ing")) {
      if (HasVowel(StemLen("ing"))) {
        Replace("ing", "");
        second_third = true;
      }
    }
    if (second_third) {
      if (EndsWith("at") || EndsWith("bl") || EndsWith("iz")) {
        b_.push_back('e');
      } else if (DoubleConsonant()) {
        char c = b_.back();
        if (c != 'l' && c != 's' && c != 'z') b_.pop_back();
      } else if (Measure(b_.size()) == 1 && CvcEnd(b_.size())) {
        b_.push_back('e');
      }
    }
  }

  void Step1c() {
    if (EndsWith("y") && HasVowel(b_.size() - 1)) {
      b_.back() = 'i';
    }
  }

  void Step2() {
    if (b_.size() < 3) return;
    // Dispatch on penultimate character as in the original description.
    static const struct {
      const char* suffix;
      const char* repl;
    } kRules[] = {
        {"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
        {"anci", "ance"},   {"izer", "ize"},    {"abli", "able"},
        {"alli", "al"},     {"entli", "ent"},   {"eli", "e"},
        {"ousli", "ous"},   {"ization", "ize"}, {"ation", "ate"},
        {"ator", "ate"},    {"alism", "al"},    {"iveness", "ive"},
        {"fulness", "ful"}, {"ousness", "ous"}, {"aliti", "al"},
        {"iviti", "ive"},   {"biliti", "ble"},
    };
    for (const auto& r : kRules) {
      if (Rule(r.suffix, r.repl, 0)) return;
    }
  }

  void Step3() {
    static const struct {
      const char* suffix;
      const char* repl;
    } kRules[] = {
        {"icate", "ic"}, {"ative", ""},  {"alize", "al"}, {"iciti", "ic"},
        {"ical", "ic"},  {"ful", ""},    {"ness", ""},
    };
    for (const auto& r : kRules) {
      if (Rule(r.suffix, r.repl, 0)) return;
    }
  }

  void Step4() {
    static const char* kSuffixes[] = {
        "al",   "ance", "ence", "er",   "ic",   "able", "ible", "ant",
        "ement", "ment", "ent",  "ou",   "ism",  "ate",  "iti",  "ous",
        "ive",  "ize",
    };
    for (const char* s : kSuffixes) {
      if (EndsWith(s)) {
        if (Measure(StemLen(s)) > 1) Replace(s, "");
        return;
      }
    }
    // (m>1 and (*S or *T)) ION -> delete
    if (EndsWith("ion")) {
      size_t stem = StemLen("ion");
      if (stem > 0 && (b_[stem - 1] == 's' || b_[stem - 1] == 't') &&
          Measure(stem) > 1) {
        Replace("ion", "");
      }
    }
  }

  void Step5a() {
    if (EndsWith("e")) {
      size_t stem = b_.size() - 1;
      int m = Measure(stem);
      if (m > 1 || (m == 1 && !CvcEnd(stem))) b_.pop_back();
    }
  }

  void Step5b() {
    if (b_.size() >= 2 && b_.back() == 'l' && DoubleConsonant() &&
        Measure(b_.size()) > 1) {
      b_.pop_back();
    }
  }

  std::string b_;
};

}  // namespace

std::string PorterStem(std::string_view word) {
  if (word.size() < 3) return std::string(word);
  for (char c : word) {
    if (!std::islower(static_cast<unsigned char>(c))) {
      return std::string(word);  // only plain lower-case words are stemmed
    }
  }
  return Stemmer(std::string(word)).Run();
}

}  // namespace ir
}  // namespace aggchecker
