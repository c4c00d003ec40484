#include "fragments/catalog.h"

#include <gtest/gtest.h>

#include "test_fixtures.h"

namespace aggchecker {
namespace fragments {
namespace {

using testing_fixtures::MakeNflDatabase;
using testing_fixtures::MakeOrdersDatabase;

TEST(CatalogTest, BuildsAllFragmentTypes) {
  auto database = MakeNflDatabase();
  auto catalog = FragmentCatalog::Build(database);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  // All 8 aggregation functions.
  EXPECT_EQ(catalog->fragments(FragmentType::kAggFunction).size(), 8u);
  // One "*" plus 4 named columns.
  EXPECT_EQ(catalog->fragments(FragmentType::kAggColumn).size(), 5u);
  // Predicates: one per (column, distinct value): Name 10 + Team 10 +
  // Games 6 + Category 4 = 30.
  EXPECT_EQ(catalog->fragments(FragmentType::kPredicate).size(), 30u);
  EXPECT_EQ(catalog->predicate_columns().size(), 4u);
}

TEST(CatalogTest, EmptyDatabaseRejected) {
  db::Database empty;
  EXPECT_FALSE(FragmentCatalog::Build(empty).ok());
}

TEST(CatalogTest, RetrievePredicateByValueKeyword) {
  auto database = MakeNflDatabase();
  auto catalog = FragmentCatalog::Build(database);
  ASSERT_TRUE(catalog.ok());
  auto hits = catalog->Retrieve(FragmentType::kPredicate,
                                {{"gambling", 1.0}}, 5);
  ASSERT_FALSE(hits.empty());
  const auto& top = catalog->fragment(FragmentType::kPredicate,
                                      hits[0].fragment_index);
  EXPECT_EQ(top.value.ToString(), "gambling");
  EXPECT_EQ(top.column.column, "Category");
}

TEST(CatalogTest, RetrieveColumnBySplitName) {
  auto database = MakeOrdersDatabase();
  auto catalog = FragmentCatalog::Build(database);
  ASSERT_TRUE(catalog.ok());
  // "customer" must reach the customer_id column via word splitting.
  auto hits = catalog->Retrieve(FragmentType::kAggColumn,
                                {{"customer", 1.0}}, 10);
  bool found = false;
  for (const auto& h : hits) {
    if (catalog->fragment(FragmentType::kAggColumn, h.fragment_index)
            .column.column == "customer_id") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CatalogTest, RetrieveFunctionByCueWord) {
  auto database = MakeNflDatabase();
  auto catalog = FragmentCatalog::Build(database);
  ASSERT_TRUE(catalog.ok());
  auto hits = catalog->Retrieve(FragmentType::kAggFunction,
                                {{"average", 1.0}}, 3);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(catalog->fragment(FragmentType::kAggFunction,
                              hits[0].fragment_index)
                .fn,
            db::AggFn::kAvg);
}

TEST(CatalogTest, PredicateAndAggColumnIndexLookup) {
  auto database = MakeNflDatabase();
  auto catalog = FragmentCatalog::Build(database);
  ASSERT_TRUE(catalog.ok());
  EXPECT_GE(catalog->PredicateColumnIndex({"nflsuspensions", "Games"}), 0);
  EXPECT_EQ(catalog->PredicateColumnIndex({"nflsuspensions", "nope"}), -1);
  EXPECT_GE(catalog->AggColumnIndex({"nflsuspensions", ""}), 0);  // star
  EXPECT_GE(catalog->AggColumnIndex({"nflsuspensions", "Games"}), 0);
  EXPECT_EQ(catalog->AggColumnIndex({"zzz", "Games"}), -1);
}

TEST(CatalogTest, LiteralCapRespected) {
  auto database = MakeNflDatabase();
  CatalogOptions options;
  options.max_literals_per_column = 2;
  auto catalog = FragmentCatalog::Build(database, options);
  ASSERT_TRUE(catalog.ok());
  // 4 columns x 2 literals each = 8.
  EXPECT_EQ(catalog->fragments(FragmentType::kPredicate).size(), 8u);
}

TEST(CatalogTest, DataDictionaryKeywordsIndexed) {
  auto database = MakeOrdersDatabase();
  DataDictionary dict;
  dict.Add({"orders", "amount"}, "total purchase price in dollars");
  CatalogOptions options;
  options.dictionary = &dict;
  auto catalog = FragmentCatalog::Build(database, options);
  ASSERT_TRUE(catalog.ok());
  auto hits = catalog->Retrieve(FragmentType::kAggColumn,
                                {{"price", 1.0}}, 10);
  bool found = false;
  for (const auto& h : hits) {
    if (catalog->fragment(FragmentType::kAggColumn, h.fragment_index)
            .column.column == "amount") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CatalogTest, CountPossibleQueriesGrowsWithData) {
  auto nfl = MakeNflDatabase();
  double count = FragmentCatalog::CountPossibleQueries(nfl);
  // Predicate combinations: (1+10)(1+10)(1+6)(1+4) = 4235; select choices:
  // 1 star + per-column compatible fns.
  EXPECT_GT(count, 4235.0);
  auto shop = MakeOrdersDatabase();
  EXPECT_GT(FragmentCatalog::CountPossibleQueries(shop), 0.0);
}

TEST(DataDictionaryTest, ParseAndLookup) {
  auto dict = DataDictionary::Parse(
      "table,column,description\n"
      "nflsuspensions,Games,number of games suspended or indef\n"
      ",Category,reason for the suspension\n");
  ASSERT_TRUE(dict.ok()) << dict.status().ToString();
  EXPECT_EQ(dict->size(), 2u);
  EXPECT_EQ(dict->Lookup({"nflsuspensions", "Games"}),
            "number of games suspended or indef");
  // Table-agnostic entry matches any table; lookup is case-insensitive.
  EXPECT_EQ(dict->Lookup({"whatever", "CATEGORY"}),
            "reason for the suspension");
  EXPECT_EQ(dict->Lookup({"nflsuspensions", "nope"}), "");
}

TEST(DataDictionaryTest, ParseErrors) {
  EXPECT_FALSE(DataDictionary::Parse("only,two\na,b\n").ok());
  EXPECT_FALSE(DataDictionary::Parse("t,c,d\nx,,desc\n").ok());
}

}  // namespace
}  // namespace fragments
}  // namespace aggchecker
