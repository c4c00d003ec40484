#include "db/database.h"

#include <gtest/gtest.h>

#include "test_fixtures.h"

namespace aggchecker {
namespace db {
namespace {

TEST(DatabaseTest, AddAndFindTables) {
  auto database = testing_fixtures::MakeOrdersDatabase();
  EXPECT_EQ(database.num_tables(), 2u);
  EXPECT_NE(database.FindTable("orders"), nullptr);
  EXPECT_NE(database.FindTable("CUSTOMERS"), nullptr);
  EXPECT_EQ(database.FindTable("nope"), nullptr);
}

TEST(DatabaseTest, DuplicateTableRejected) {
  Database database;
  ASSERT_TRUE(database.AddTable(Table("t")).ok());
  EXPECT_FALSE(database.AddTable(Table("T")).ok());
}

TEST(DatabaseTest, FindColumnResolvesRefs) {
  auto database = testing_fixtures::MakeOrdersDatabase();
  EXPECT_NE(database.FindColumn({"orders", "amount"}), nullptr);
  EXPECT_EQ(database.FindColumn({"orders", "nope"}), nullptr);
  EXPECT_EQ(database.FindColumn({"nope", "amount"}), nullptr);
}

TEST(DatabaseTest, ForeignKeyValidation) {
  auto database = testing_fixtures::MakeOrdersDatabase();
  // Unknown columns rejected.
  EXPECT_FALSE(
      database.AddForeignKey({"orders", "nope"}, {"customers", "id"}).ok());
  EXPECT_FALSE(
      database.AddForeignKey({"orders", "id"}, {"nope", "id"}).ok());
}

TEST(DatabaseTest, CyclicForeignKeyRejected) {
  auto database = testing_fixtures::MakeOrdersDatabase();
  // orders—customers already linked; closing the cycle must fail (§6.3
  // requires an acyclic schema).
  EXPECT_FALSE(
      database.AddForeignKey({"customers", "id"}, {"orders", "id"}).ok());
  // Self-edges likewise.
  EXPECT_FALSE(
      database.AddForeignKey({"orders", "id"}, {"orders", "customer_id"})
          .ok());
}

TEST(DatabaseTest, JoinPlanSingleTableIsEmpty) {
  auto database = testing_fixtures::MakeOrdersDatabase();
  auto plan = database.JoinPlan({"orders"});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->steps.empty());
  EXPECT_EQ(plan->root, "orders");
}

TEST(DatabaseTest, JoinPlanTwoTables) {
  auto database = testing_fixtures::MakeOrdersDatabase();
  auto plan = database.JoinPlan({"orders", "customers"});
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps.size(), 1u);
}

TEST(DatabaseTest, JoinPlanUnknownTable) {
  auto database = testing_fixtures::MakeOrdersDatabase();
  EXPECT_FALSE(database.JoinPlan({"orders", "nope"}).ok());
}

TEST(DatabaseTest, JoinPlanDisconnectedTables) {
  auto database = testing_fixtures::MakeOrdersDatabase();
  Table island("island");
  ASSERT_TRUE(island.AddColumn("x", ValueType::kLong).ok());
  ASSERT_TRUE(database.AddTable(std::move(island)).ok());
  EXPECT_FALSE(database.JoinPlan({"orders", "island"}).ok());
  // But the island alone is fine.
  EXPECT_TRUE(database.JoinPlan({"island"}).ok());
}

TEST(DatabaseTest, JoinPlanThreeTableChainViaIntermediate) {
  // items -> orders -> customers; requesting {items, customers} must pull in
  // orders as the connecting table.
  auto database = testing_fixtures::MakeOrdersDatabase();
  Table items("items");
  ASSERT_TRUE(items.AddColumn("order_id", ValueType::kLong).ok());
  ASSERT_TRUE(items.AddColumn("sku", ValueType::kString).ok());
  ASSERT_TRUE(
      items.AddRow({Value(int64_t{10}), Value(std::string("apple"))}).ok());
  ASSERT_TRUE(database.AddTable(std::move(items)).ok());
  ASSERT_TRUE(
      database.AddForeignKey({"items", "order_id"}, {"orders", "id"}).ok());

  auto plan = database.JoinPlan({"items", "customers"});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->steps.size(), 2u);  // both edges of the path
}

TEST(DatabaseTest, TotalRows) {
  auto database = testing_fixtures::MakeOrdersDatabase();
  EXPECT_EQ(database.TotalRows(), 3u + 5u);
}

// Version plumbing (DESIGN.md §16): TableVersion is case-insensitive and
// returns the sentinel 0 for unknown tables (real versions start at 1, so
// "unknown" always compares unequal); ingestion through the database bumps
// exactly the touched table.
TEST(DatabaseVersionTest, TableVersionAndIngestionRouting) {
  auto database = testing_fixtures::MakeOrdersDatabase();
  EXPECT_EQ(database.TableVersion("orders"), 1u);
  EXPECT_EQ(database.TableVersion("ORDERS"), 1u);
  EXPECT_EQ(database.TableVersion("nope"), 0u);

  const db::Table* orders = database.FindTable("orders");
  ASSERT_NE(orders, nullptr);
  std::vector<Value> row;
  for (size_t c = 0; c < orders->num_columns(); ++c) {
    row.push_back(orders->column(c).at(0));
  }
  ASSERT_TRUE(database.AppendRows("Orders", {row}).ok());
  EXPECT_EQ(database.TableVersion("orders"), 2u);
  EXPECT_EQ(database.TableVersion("customers"), 1u)
      << "ingestion must bump only the touched table";
  EXPECT_FALSE(database.AppendRows("nope", {row}).ok());
}

// The version vector is the cache-key domain: sorted lower-cased names,
// one entry per table, tracking each table's current version.
TEST(DatabaseVersionTest, VersionVectorSortedAndCurrent) {
  auto database = testing_fixtures::MakeOrdersDatabase();
  auto vec = database.VersionVector();
  ASSERT_EQ(vec.size(), database.num_tables());
  for (size_t i = 1; i < vec.size(); ++i) {
    EXPECT_LT(vec[i - 1].first, vec[i].first) << "vector must be sorted";
  }
  for (const auto& [table, version] : vec) {
    EXPECT_EQ(version, database.TableVersion(table));
  }

  const db::Table* orders = database.FindTable("orders");
  std::vector<Value> row;
  for (size_t c = 0; c < orders->num_columns(); ++c) {
    row.push_back(orders->column(c).at(0));
  }
  ASSERT_TRUE(database.AppendRows("orders", {row}).ok());
  auto bumped = database.VersionVector();
  ASSERT_EQ(bumped.size(), vec.size());
  for (size_t i = 0; i < vec.size(); ++i) {
    EXPECT_EQ(bumped[i].first, vec[i].first);
    if (bumped[i].first == "orders") {
      EXPECT_EQ(bumped[i].second, vec[i].second + 1);
    } else {
      EXPECT_EQ(bumped[i].second, vec[i].second);
    }
  }
}

}  // namespace
}  // namespace db
}  // namespace aggchecker
