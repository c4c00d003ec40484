#include "db/cube.h"

#include <gtest/gtest.h>

#include "test_fixtures.h"

namespace aggchecker {
namespace db {
namespace {

using testing_fixtures::MakeNflDatabase;
using testing_fixtures::MakeOrdersDatabase;

class CubeTest : public ::testing::Test {
 protected:
  CubeTest() : nfl_(MakeNflDatabase()) {}
  Database nfl_;
};

TEST_F(CubeTest, SingleDimensionCountsMatchPaperExample) {
  ColumnRef games{"nflsuspensions", "Games"};
  std::vector<Value> literals{Value(std::string("indef"))};
  CubeAggregate count_star;
  auto cube = ExecuteCube(nfl_, {games}, {literals}, {count_star});
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();

  // Games = 'indef' -> 4 lifetime bans.
  EXPECT_DOUBLE_EQ((*cube)->Lookup({0}, 0).value(), 4.0);
  // Rollup (no restriction) -> all 10 rows.
  EXPECT_DOUBLE_EQ((*cube)->Lookup({kAllBucket}, 0).value(), 10.0);
  // Default bucket: everything not 'indef' -> 6 rows.
  EXPECT_DOUBLE_EQ((*cube)->Lookup({kDefaultBucket}, 0).value(), 6.0);
}

TEST_F(CubeTest, TwoDimensionsWithMultipleAggregates) {
  ColumnRef games{"nflsuspensions", "Games"};
  ColumnRef category{"nflsuspensions", "Category"};
  std::vector<Value> games_lits{Value(std::string("indef"))};
  std::vector<Value> cat_lits{
      Value(std::string("gambling")),
      Value(std::string("substance abuse repeated offense"))};
  CubeAggregate count_star;
  CubeAggregate count_distinct_team;
  count_distinct_team.fn = AggFn::kCountDistinct;
  count_distinct_team.column = {"nflsuspensions", "Team"};

  auto cube = ExecuteCube(nfl_, {games, category}, {games_lits, cat_lits},
                          {count_star, count_distinct_team});
  ASSERT_TRUE(cube.ok());

  // indef + gambling -> 1 row (the paper's claimed result 'one').
  EXPECT_DOUBLE_EQ((*cube)->Lookup({0, 0}, 0).value(), 1.0);
  // indef + repeated substance abuse -> 3 rows.
  EXPECT_DOUBLE_EQ((*cube)->Lookup({0, 1}, 0).value(), 3.0);
  // indef, any category -> 4 rows, 4 distinct teams.
  EXPECT_DOUBLE_EQ((*cube)->Lookup({0, kAllBucket}, 0).value(), 4.0);
  EXPECT_DOUBLE_EQ((*cube)->Lookup({0, kAllBucket}, 1).value(), 4.0);
  // No restriction at all.
  EXPECT_DOUBLE_EQ((*cube)->Lookup({kAllBucket, kAllBucket}, 0).value(),
                   10.0);
}

TEST_F(CubeTest, MissingCellMeansNoRows) {
  ColumnRef team{"nflsuspensions", "Team"};
  std::vector<Value> lits{Value(std::string("ZZZ"))};  // matches nothing
  CubeAggregate count_star;
  auto cube = ExecuteCube(nfl_, {team}, {lits}, {count_star});
  ASSERT_TRUE(cube.ok());
  EXPECT_FALSE((*cube)->Lookup({0}, 0).has_value());
}

TEST_F(CubeTest, NullDimValuesLandInDefaultBucket) {
  Database database;
  auto data = csv::Parse("k,v\na,1\n,2\nb,3\n");
  ASSERT_TRUE(database.AddTable(*Table::FromCsv("t", *data)).ok());
  ColumnRef k{"t", "k"};
  CubeAggregate count_star;
  auto cube = ExecuteCube(database, {k}, {{Value(std::string("a"))}},
                          {count_star});
  ASSERT_TRUE(cube.ok());
  EXPECT_DOUBLE_EQ((*cube)->Lookup({0}, 0).value(), 1.0);
  // Default bucket holds 'b' and the NULL row.
  EXPECT_DOUBLE_EQ((*cube)->Lookup({kDefaultBucket}, 0).value(), 2.0);
  EXPECT_DOUBLE_EQ((*cube)->Lookup({kAllBucket}, 0).value(), 3.0);
}

TEST_F(CubeTest, ZeroDimensionCube) {
  CubeAggregate count_star;
  count_star.column.table = "nflsuspensions";
  auto cube = ExecuteCube(nfl_, {}, {}, {count_star});
  ASSERT_TRUE(cube.ok());
  EXPECT_DOUBLE_EQ((*cube)->Lookup({}, 0).value(), 10.0);
}

TEST_F(CubeTest, RatioAggregatesRejected) {
  CubeAggregate pct;
  pct.fn = AggFn::kPercentage;
  EXPECT_FALSE(ExecuteCube(nfl_, {}, {}, {pct}).ok());
}

TEST_F(CubeTest, EmptyAggregateListRejected) {
  EXPECT_FALSE(ExecuteCube(nfl_, {}, {}, {}).ok());
}

TEST_F(CubeTest, DimLiteralSizeMismatchRejected) {
  ColumnRef games{"nflsuspensions", "Games"};
  CubeAggregate count_star;
  EXPECT_FALSE(ExecuteCube(nfl_, {games}, {}, {count_star}).ok());
}

TEST_F(CubeTest, CubeOverJoin) {
  auto shop = MakeOrdersDatabase();
  ColumnRef region{"customers", "region"};
  CubeAggregate sum_amount;
  sum_amount.fn = AggFn::kSum;
  sum_amount.column = {"orders", "amount"};
  auto cube = ExecuteCube(shop, {region},
                          {{Value(std::string("east")),
                            Value(std::string("west"))}},
                          {sum_amount});
  ASSERT_TRUE(cube.ok());
  EXPECT_DOUBLE_EQ((*cube)->Lookup({0}, 0).value(), 22.5);
  EXPECT_DOUBLE_EQ((*cube)->Lookup({1}, 0).value(), 2.5);
  // Dangling order (customer 9) excluded by the inner join.
  EXPECT_DOUBLE_EQ((*cube)->Lookup({kAllBucket}, 0).value(), 25.0);
}

}  // namespace
}  // namespace db
}  // namespace aggchecker
