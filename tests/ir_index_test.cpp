#include "ir/inverted_index.h"

#include <gtest/gtest.h>

#include "ir/synonyms.h"
#include "ir/word_splitter.h"

namespace aggchecker {
namespace ir {
namespace {

InvertedIndex MakeSmallIndex() {
  InvertedIndex index;
  // Query-fragment-like documents.
  index.AddDocument({{"games", 1.0}, {"indef", 1.0}, {"lifetime", 1.0},
                     {"ban", 1.0}});                        // doc 0
  index.AddDocument({{"category", 1.0}, {"gambling", 1.0}});  // doc 1
  index.AddDocument({{"category", 1.0}, {"substance", 1.0},
                     {"abuse", 1.0}});                      // doc 2
  index.AddDocument({{"team", 1.0}, {"name", 1.0}});        // doc 3
  return index;
}

// Score of `doc_id` for `query`, read from its Search hit (0 if it has none).
double ScoreOf(const InvertedIndex& index,
               const std::vector<InvertedIndex::TermWeight>& query,
               int doc_id) {
  for (const ScoredDoc& hit : index.Search(query, index.num_documents())) {
    if (hit.doc_id == doc_id) return hit.score;
  }
  return 0.0;
}

TEST(InvertedIndexTest, ExactTermHitRanksFirst) {
  auto index = MakeSmallIndex();
  auto hits = index.Search({{"gambling", 1.0}}, 10);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].doc_id, 1);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(InvertedIndexTest, MultiTermQueryAccumulates) {
  auto index = MakeSmallIndex();
  auto hits = index.Search({{"lifetime", 1.0}, {"bans", 1.0}}, 10);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].doc_id, 0);  // both terms stem-match doc 0
}

TEST(InvertedIndexTest, StemmingMatchesVariants) {
  auto index = MakeSmallIndex();
  // "bans" must match the indexed "ban" via stemming.
  auto hits = index.Search({{"bans", 1.0}}, 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc_id, 0);
}

TEST(InvertedIndexTest, SharedTermsScoreLowerThanRareOnes) {
  auto index = MakeSmallIndex();
  // "category" appears in two docs (low idf); "gambling" in one. A query
  // with both must rank the gambling doc over the other category doc.
  auto hits = index.Search({{"category", 1.0}, {"gambling", 1.0}}, 10);
  ASSERT_GE(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc_id, 1);
}

TEST(InvertedIndexTest, QueryWeightScalesScore) {
  auto index = MakeSmallIndex();
  double low = ScoreOf(index, {{"gambling", 0.5}}, 1);
  double high = ScoreOf(index, {{"gambling", 1.0}}, 1);
  EXPECT_GT(high, low);
  EXPECT_GT(low, 0.0);
}

TEST(InvertedIndexTest, NoOverlapNoHits) {
  auto index = MakeSmallIndex();
  EXPECT_TRUE(index.Search({{"zebra", 1.0}}, 10).empty());
  EXPECT_EQ(ScoreOf(index, {{"zebra", 1.0}}, 0), 0.0);
}

TEST(InvertedIndexTest, TopKTruncates) {
  auto index = MakeSmallIndex();
  auto hits = index.Search({{"category", 1.0}}, 1);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(InvertedIndexTest, ZeroAndNegativeWeightsIgnored) {
  InvertedIndex index;
  index.AddDocument({{"word", 0.0}, {"other", -1.0}, {"real", 1.0}});
  EXPECT_TRUE(index.Search({{"word", 1.0}}, 5).empty());
  EXPECT_FALSE(index.Search({{"real", 1.0}}, 5).empty());
}

TEST(InvertedIndexTest, DuplicateQueryTermsMerge) {
  auto index = MakeSmallIndex();
  double once = ScoreOf(index, {{"gambling", 2.0}}, 1);
  double twice = ScoreOf(index, {{"gambling", 1.0}, {"gambling", 1.0}}, 1);
  EXPECT_DOUBLE_EQ(once, twice);
}

TEST(SynonymDictionaryTest, SymmetricGroups) {
  const auto& dict = SynonymDictionary::Default();
  auto lifetime = dict.Lookup("lifetime");
  EXPECT_NE(std::find(lifetime.begin(), lifetime.end(), "indef"),
            lifetime.end());
  auto indef = dict.Lookup("indef");
  EXPECT_NE(std::find(indef.begin(), indef.end(), "lifetime"), indef.end());
}

TEST(SynonymDictionaryTest, UnknownWordEmpty) {
  EXPECT_TRUE(SynonymDictionary::Default().Lookup("qwertyzxcv").empty());
  EXPECT_TRUE(SynonymDictionary().Lookup("lifetime").empty());
}

TEST(SynonymDictionaryTest, CustomGroupsMerge) {
  SynonymDictionary dict;
  dict.AddGroup({"a", "b"});
  dict.AddGroup({"b", "c"});
  auto b = dict.Lookup("b");
  EXPECT_EQ(b.size(), 2u);  // a and c
  EXPECT_EQ(dict.Lookup("a").size(), 1u);
}

TEST(WordSplitterTest, SeparatorAndCamelCase) {
  const auto& splitter = WordSplitter::Default();
  EXPECT_EQ(splitter.Split("customer_id"),
            (std::vector<std::string>{"customer", "id"}));
  EXPECT_EQ(splitter.Split("TotalSalary"),
            (std::vector<std::string>{"total", "salary"}));
  EXPECT_EQ(splitter.Split("per-capita"),
            (std::vector<std::string>{"per", "capita"}));
}

TEST(WordSplitterTest, DictionarySegmentation) {
  const auto& splitter = WordSplitter::Default();
  // The paper's running-example table name.
  EXPECT_EQ(splitter.Split("nflsuspensions"),
            (std::vector<std::string>{"nfl", "suspensions"}));
  EXPECT_EQ(splitter.Split("totalsalary"),
            (std::vector<std::string>{"total", "salary"}));
}

TEST(WordSplitterTest, UnsplittableKeptWhole) {
  const auto& splitter = WordSplitter::Default();
  EXPECT_EQ(splitter.Split("xyzzyq"), (std::vector<std::string>{"xyzzyq"}));
  EXPECT_EQ(splitter.Split("abc"), (std::vector<std::string>{"abc"}));
}

TEST(WordSplitterTest, DigitBoundaries) {
  const auto& splitter = WordSplitter::Default();
  EXPECT_EQ(splitter.Split("year2016"),
            (std::vector<std::string>{"year", "2016"}));
}

TEST(WordSplitterTest, UpperAbbreviationRun) {
  const auto& splitter = WordSplitter::Default();
  EXPECT_EQ(splitter.Split("GDPGrowth"),
            (std::vector<std::string>{"gdp", "growth"}));
}

}  // namespace
}  // namespace ir
}  // namespace aggchecker
