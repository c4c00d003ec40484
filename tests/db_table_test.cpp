#include "db/table.h"

#include <gtest/gtest.h>

#include "test_fixtures.h"

namespace aggchecker {
namespace db {
namespace {

TEST(TableTest, FromCsvInfersTypes) {
  auto data = csv::Parse("name,games,score\nA,3,1.5\nB,7,2\n");
  auto table = Table::FromCsv("t", *data);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->FindColumn("name")->type(), ValueType::kString);
  EXPECT_EQ(table->FindColumn("games")->type(), ValueType::kLong);
  // 1.5 and 2 mixed -> DOUBLE; the long 2 is coerced.
  EXPECT_EQ(table->FindColumn("score")->type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(table->FindColumn("score")->at(1).AsDoubleExact(), 2.0);
}

TEST(TableTest, MixedNumericAndTextIsString) {
  auto data = csv::Parse("games\n16\nindef\n4\n");
  auto table = Table::FromCsv("t", *data);
  ASSERT_TRUE(table.ok());
  const Column* col = table->FindColumn("games");
  EXPECT_EQ(col->type(), ValueType::kString);
  // Numeric-looking cells keep their text rendering in a string column.
  EXPECT_EQ(col->at(0).AsString(), "16");
  EXPECT_EQ(col->at(1).AsString(), "indef");
}

TEST(TableTest, NullsCountedPerColumn) {
  auto data = csv::Parse("x\n1\n\n3\n\n");
  auto table = Table::FromCsv("t", *data);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->FindColumn("x")->null_count(), 2u);
  EXPECT_EQ(table->FindColumn("x")->type(), ValueType::kLong);
}

TEST(TableTest, ColumnLookupCaseInsensitive) {
  auto database = testing_fixtures::MakeNflDatabase();
  const Table* t = database.FindTable("NFLSUSPENSIONS");
  ASSERT_NE(t, nullptr);
  EXPECT_NE(t->FindColumn("GAMES"), nullptr);
  EXPECT_NE(t->FindColumn("games"), nullptr);
  EXPECT_EQ(t->FindColumn("nope"), nullptr);
  EXPECT_EQ(t->ColumnIndex("Category"), 3);
}

TEST(TableTest, DuplicateColumnRejected) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn("a", ValueType::kLong).ok());
  EXPECT_FALSE(t.AddColumn("A", ValueType::kLong).ok());
}

TEST(TableTest, AddColumnAfterRowsRejected) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn("a", ValueType::kLong).ok());
  ASSERT_TRUE(t.AddRow({Value(int64_t{1})}).ok());
  EXPECT_FALSE(t.AddColumn("b", ValueType::kLong).ok());
}

TEST(TableTest, RowArityChecked) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn("a", ValueType::kLong).ok());
  ASSERT_TRUE(t.AddColumn("b", ValueType::kLong).ok());
  EXPECT_FALSE(t.AddRow({Value(int64_t{1})}).ok());
}

TEST(TableTest, EmptyHeaderRejected) {
  csv::CsvData data;
  EXPECT_FALSE(Table::FromCsv("t", data).ok());
}

TEST(ColumnTest, DistinctValuesInAppearanceOrder) {
  auto database = testing_fixtures::MakeNflDatabase();
  const Column* games =
      database.FindTable("nflsuspensions")->FindColumn("Games");
  const auto& distinct = games->DistinctValues();
  std::vector<std::string> rendered;
  for (const Value& v : distinct) rendered.push_back(v.ToString());
  EXPECT_EQ(rendered, (std::vector<std::string>{"indef", "16", "8", "4",
                                                "2", "1"}));
  // Each row's code indexes its own value in that list.
  const auto& codes = games->Codes();
  ASSERT_EQ(codes.size(), games->size());
  for (size_t r = 0; r < codes.size(); ++r) {
    ASSERT_GE(codes[r], 0) << "row " << r;
    EXPECT_EQ(distinct[static_cast<size_t>(codes[r])], games->at(r))
        << "row " << r;
  }
}

TEST(ColumnTest, DictionaryInvalidatedByAppend) {
  Column c("c", ValueType::kLong);
  c.Append(Value(int64_t{1}));
  EXPECT_EQ(c.DistinctValues().size(), 1u);
  c.Append(Value(int64_t{2}));
  EXPECT_EQ(c.DistinctValues().size(), 2u);
  c.Append(Value(int64_t{2}));
  EXPECT_EQ(c.DistinctValues().size(), 2u);
}

// Version semantics (DESIGN.md §16): the counter starts at 1, the staging
// path (AddRow) never bumps it, and each post-build mutation bumps it by
// exactly one.
TEST(TableVersionTest, IngestionBumpsVersionStagingDoesNot) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn("x", ValueType::kLong).ok());
  EXPECT_EQ(t.version(), 1u);
  ASSERT_TRUE(t.AddRow({Value(int64_t{1})}).ok());
  EXPECT_EQ(t.version(), 1u) << "staging rows must not bump the version";

  ASSERT_TRUE(t.AppendRows({{Value(int64_t{2})}, {Value(int64_t{3})}}).ok());
  EXPECT_EQ(t.version(), 2u);
  EXPECT_EQ(t.num_rows(), 3u);

  ASSERT_TRUE(t.UpdateCell(0, "x", Value(int64_t{9})).ok());
  EXPECT_EQ(t.version(), 3u);
  EXPECT_EQ(t.column(0).at(0).AsLong(), 9);
}

// A rejected batch is atomic: whole-batch validation runs before any
// mutation, so a bad row anywhere leaves rows, values, and the version
// exactly as they were.
TEST(TableVersionTest, RejectedAppendLeavesTableUntouched) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn("x", ValueType::kLong).ok());
  ASSERT_TRUE(t.AddColumn("s", ValueType::kString).ok());
  ASSERT_TRUE(t.AddRow({Value(int64_t{1}), Value(std::string("a"))}).ok());

  // Second row has wrong arity; first is valid — neither must land.
  Status s = t.AppendRows({{Value(int64_t{2}), Value(std::string("b"))},
                           {Value(int64_t{3})}});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.version(), 1u);

  // Type violation: a string into a LONG column.
  s = t.AppendRows({{Value(std::string("nope")), Value(std::string("b"))}});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.version(), 1u);

  // Out-of-range / unknown-column updates are also version-neutral.
  EXPECT_FALSE(t.UpdateCell(5, "x", Value(int64_t{0})).ok());
  EXPECT_FALSE(t.UpdateCell(0, "nope", Value(int64_t{0})).ok());
  EXPECT_EQ(t.version(), 1u);
}

// A DOUBLE column coerces appended longs exactly like the build path, and
// the appended rows are visible through the flat view and dictionary.
TEST(TableVersionTest, AppendCoercesAndRebuildsDerivedViews) {
  auto data = csv::Parse("score\n1.5\n2\n");
  auto table = Table::FromCsv("t", *data);
  ASSERT_TRUE(table.ok());
  const Column* col = table->FindColumn("score");
  ASSERT_EQ(col->type(), ValueType::kDouble);
  (void)col->Flat();  // build the lazy views pre-append

  ASSERT_TRUE(table->AppendRows({{Value(int64_t{4})}}).ok());
  EXPECT_EQ(table->version(), 2u);
  const Column::FlatView& flat = col->Flat();
  ASSERT_EQ(flat.size, 3u);
  EXPECT_DOUBLE_EQ(flat.doubles[2], 4.0);
  EXPECT_EQ(col->DistinctValues().size(), 3u);
}

// FromSnapshotParts restores the recorded version so caches stamped against
// the pre-snapshot counter stay comparable after a save/load cycle.
TEST(TableVersionTest, FromSnapshotPartsRestoresVersion) {
  std::vector<std::unique_ptr<Column>> columns;
  auto col = std::make_unique<Column>("x", ValueType::kLong);
  col->Append(Value(int64_t{1}));
  columns.push_back(std::move(col));
  auto t = Table::FromSnapshotParts("t", std::move(columns), 1, 7);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->version(), 7u);
  ASSERT_TRUE(t->AppendRows({{Value(int64_t{2})}}).ok());
  EXPECT_EQ(t->version(), 8u);
}

}  // namespace
}  // namespace db
}  // namespace aggchecker
