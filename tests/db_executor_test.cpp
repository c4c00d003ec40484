#include "db/executor.h"

#include <gtest/gtest.h>

#include "test_fixtures.h"

namespace aggchecker {
namespace db {
namespace {

using testing_fixtures::CountStar;
using testing_fixtures::MakeNflDatabase;
using testing_fixtures::MakeOrdersDatabase;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : nfl_(MakeNflDatabase()), shop_(MakeOrdersDatabase()) {}

  double Eval(const Database& database, const SimpleAggregateQuery& q) {
    QueryExecutor exec(&database);
    auto r = exec.Execute(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->has_value()) << q.ToSql();
    return r->value();
  }

  Database nfl_;
  Database shop_;
};

// The paper's Example 1: four lifetime bans, three for repeated substance
// abuse.
TEST_F(ExecutorTest, PaperExampleOneLifetimeBans) {
  auto q = CountStar("nflsuspensions",
                     {{{"nflsuspensions", "Games"},
                       Value(std::string("indef"))}});
  EXPECT_DOUBLE_EQ(Eval(nfl_, q), 4.0);

  q.predicates.push_back(
      {{"nflsuspensions", "Category"},
       Value(std::string("substance abuse repeated offense"))});
  EXPECT_DOUBLE_EQ(Eval(nfl_, q), 3.0);
}

TEST_F(ExecutorTest, CountStarNoPredicates) {
  EXPECT_DOUBLE_EQ(Eval(nfl_, CountStar("nflsuspensions")), 10.0);
}

TEST_F(ExecutorTest, CountColumnSkipsNulls) {
  Database database;
  auto data = csv::Parse("x\n1\n\n3\n");
  ASSERT_TRUE(database.AddTable(*Table::FromCsv("t", *data)).ok());
  SimpleAggregateQuery q;
  q.fn = AggFn::kCount;
  q.agg_column = {"t", "x"};
  EXPECT_DOUBLE_EQ(Eval(database, q), 2.0);
}

TEST_F(ExecutorTest, CountDistinct) {
  SimpleAggregateQuery q;
  q.fn = AggFn::kCountDistinct;
  q.agg_column = {"nflsuspensions", "Category"};
  EXPECT_DOUBLE_EQ(Eval(nfl_, q), 4.0);
}

TEST_F(ExecutorTest, SumAvgMinMax) {
  SimpleAggregateQuery q;
  q.agg_column = {"orders", "amount"};
  q.fn = AggFn::kSum;
  EXPECT_DOUBLE_EQ(Eval(shop_, q), 124.0);  // 5+7.5+2.5+10+99
  q.fn = AggFn::kAvg;
  EXPECT_DOUBLE_EQ(Eval(shop_, q), 124.0 / 5);
  q.fn = AggFn::kMin;
  EXPECT_DOUBLE_EQ(Eval(shop_, q), 2.5);
  q.fn = AggFn::kMax;
  EXPECT_DOUBLE_EQ(Eval(shop_, q), 99.0);
}

TEST_F(ExecutorTest, JoinedQueryWithPredicateOnOtherTable) {
  // Sum of order amounts for customers in the east region; the dangling
  // order (customer 9) drops out of the join.
  SimpleAggregateQuery q;
  q.fn = AggFn::kSum;
  q.agg_column = {"orders", "amount"};
  q.predicates = {{{"customers", "region"}, Value(std::string("east"))}};
  EXPECT_DOUBLE_EQ(Eval(shop_, q), 22.5);  // 5 + 7.5 + 10
}

TEST_F(ExecutorTest, JoinedCountStar) {
  auto q = CountStar("orders");
  q.predicates = {{{"customers", "region"}, Value(std::string("west"))}};
  EXPECT_DOUBLE_EQ(Eval(shop_, q), 1.0);
}

TEST_F(ExecutorTest, PercentageSingleTable) {
  // Percentage of suspensions that are 'gambling': 1/10 = 10%.
  SimpleAggregateQuery q;
  q.fn = AggFn::kPercentage;
  q.agg_column = {"nflsuspensions", "Category"};
  q.predicates = {
      {{"nflsuspensions", "Category"}, Value(std::string("gambling"))}};
  EXPECT_DOUBLE_EQ(Eval(nfl_, q), 10.0);
}

TEST_F(ExecutorTest, PercentageWithExtraRestriction) {
  // Among Games='indef', percentage with Category='gambling': 1/4 = 25%.
  SimpleAggregateQuery q;
  q.fn = AggFn::kPercentage;
  q.agg_column = {"nflsuspensions", "Category"};
  q.predicates = {
      {{"nflsuspensions", "Category"}, Value(std::string("gambling"))},
      {{"nflsuspensions", "Games"}, Value(std::string("indef"))}};
  EXPECT_DOUBLE_EQ(Eval(nfl_, q), 25.0);
}

TEST_F(ExecutorTest, ConditionalProbability) {
  // P(Category = repeated substance abuse | Games = indef) = 3/4.
  SimpleAggregateQuery q;
  q.fn = AggFn::kConditionalProbability;
  q.agg_column = {"nflsuspensions", ""};
  q.predicates = {
      {{"nflsuspensions", "Games"}, Value(std::string("indef"))},
      {{"nflsuspensions", "Category"},
       Value(std::string("substance abuse repeated offense"))}};
  EXPECT_DOUBLE_EQ(Eval(nfl_, q), 75.0);
}

TEST_F(ExecutorTest, EmptyMatchSemantics) {
  QueryExecutor exec(&nfl_);
  Predicate nomatch{{"nflsuspensions", "Team"}, Value(std::string("ZZZ"))};

  auto count = CountStar("nflsuspensions", {nomatch});
  auto r = exec.Execute(count);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->value(), 0.0);  // COUNT over empty set is 0

  SimpleAggregateQuery avg;
  avg.fn = AggFn::kAvg;
  avg.agg_column = {"nflsuspensions", "Name"};  // non-numeric, invalid
  EXPECT_FALSE(exec.Execute(avg).ok());

  SimpleAggregateQuery sum;
  sum.fn = AggFn::kSum;
  sum.agg_column = {"orders", "amount"};
  sum.predicates = {{{"orders", "id"}, Value(int64_t{999})}};
  QueryExecutor shop_exec(&shop_);
  auto sr = shop_exec.Execute(sum);
  ASSERT_TRUE(sr.ok());
  EXPECT_FALSE(sr->has_value());  // SUM over empty set is NULL
}

TEST_F(ExecutorTest, ValidationErrors) {
  QueryExecutor exec(&nfl_);
  // Star with non-count function.
  SimpleAggregateQuery q;
  q.fn = AggFn::kSum;
  q.agg_column = {"nflsuspensions", ""};
  EXPECT_FALSE(exec.Validate(q).ok());
  // Unknown aggregation column.
  q.agg_column = {"nflsuspensions", "nope"};
  EXPECT_FALSE(exec.Validate(q).ok());
  // Unknown predicate column.
  q = CountStar("nflsuspensions",
                {{{"nflsuspensions", "nope"}, Value(int64_t{1})}});
  EXPECT_FALSE(exec.Validate(q).ok());
  // ConditionalProbability without condition.
  SimpleAggregateQuery cp;
  cp.fn = AggFn::kConditionalProbability;
  cp.agg_column = {"nflsuspensions", ""};
  EXPECT_FALSE(exec.Validate(cp).ok());
}

TEST_F(ExecutorTest, PredicateOnNumericColumn) {
  SimpleAggregateQuery q = CountStar(
      "orders", {{{"orders", "customer_id"}, Value(int64_t{1})}});
  EXPECT_DOUBLE_EQ(Eval(shop_, q), 2.0);
}

TEST_F(ExecutorTest, ScanStatsAccumulate) {
  QueryExecutor exec(&nfl_);
  ScanStats stats;
  (void)exec.Execute(CountStar("nflsuspensions"), &stats);
  EXPECT_EQ(stats.rows_scanned, 10u);
  (void)exec.Execute(CountStar("nflsuspensions"), &stats);
  EXPECT_EQ(stats.rows_scanned, 20u);
}

TEST(QueryTest, CanonicalKeyIgnoresPredicateOrder) {
  SimpleAggregateQuery a = CountStar(
      "t", {{{"t", "x"}, Value(int64_t{1})}, {{"t", "y"}, Value(int64_t{2})}});
  SimpleAggregateQuery b = CountStar(
      "t", {{{"t", "y"}, Value(int64_t{2})}, {{"t", "x"}, Value(int64_t{1})}});
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
  EXPECT_EQ(a, b);
}

TEST(QueryTest, ConditionalProbabilityOrderSensitive) {
  SimpleAggregateQuery a;
  a.fn = AggFn::kConditionalProbability;
  a.agg_column = {"t", ""};
  a.predicates = {{{"t", "x"}, Value(int64_t{1})},
                  {{"t", "y"}, Value(int64_t{2})}};
  SimpleAggregateQuery b = a;
  std::swap(b.predicates[0], b.predicates[1]);
  EXPECT_FALSE(a == b);  // different condition -> different query
}

TEST(QueryTest, ToSqlRendering) {
  SimpleAggregateQuery q;
  q.fn = AggFn::kCount;
  q.agg_column = {"nflsuspensions", ""};
  q.predicates = {
      {{"nflsuspensions", "Games"}, Value(std::string("indef"))}};
  EXPECT_EQ(q.ToSql(),
            "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef'");
}

}  // namespace
}  // namespace db
}  // namespace aggchecker
