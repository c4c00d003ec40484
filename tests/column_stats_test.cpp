// ColumnStats: the per-column cell counts behind the fleet scheduler's
// document cost estimate. Pins what each count means (NULLs excluded, NaN
// cells distinct from each other), that the counts follow Append and Update
// since Column::Stats() derives them on every call, and that a first Stats()
// call from many threads at once is safe (run under TSan via the
// `concurrency` label).

#include "db/column_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "db/column.h"

namespace aggchecker {
namespace db {
namespace {

TEST(ColumnStatsTest, LongColumnAggregates) {
  Column col("v", ValueType::kLong);
  col.Append(Value(int64_t{4}));
  col.Append(Value());  // NULL
  col.Append(Value(int64_t{-3}));
  col.Append(Value(int64_t{4}));
  col.Append(Value(int64_t{10}));

  ColumnStats s = col.Stats();
  EXPECT_EQ(s.rows, 5u);
  EXPECT_EQ(s.non_null, 4u);
  EXPECT_EQ(s.distinct, 3u);  // {4, -3, 10}
}

TEST(ColumnStatsTest, CountsRowsNonNullAndDistinct) {
  // Non-finite cells are ordinary non-NULL values; a NaN cell gets its own
  // dictionary code.
  Column doubles("v", ValueType::kDouble);
  doubles.Append(Value(2.5));
  doubles.Append(Value(std::nan("")));
  doubles.Append(Value(std::numeric_limits<double>::infinity()));
  doubles.Append(Value(-1.5));
  ColumnStats s = doubles.Stats();
  EXPECT_EQ(s.rows, 4u);
  EXPECT_EQ(s.non_null, 4u);
  EXPECT_EQ(s.distinct, 4u);

  Column nulls("v", ValueType::kDouble);
  nulls.Append(Value());
  nulls.Append(Value());
  s = nulls.Stats();
  EXPECT_EQ(s.rows, 2u);
  EXPECT_EQ(s.non_null, 0u);
  EXPECT_EQ(s.distinct, 0u);

  Column strings("v", ValueType::kString);
  strings.Append(Value(std::string("a")));
  strings.Append(Value(std::string("b")));
  strings.Append(Value(std::string("a")));
  s = strings.Stats();
  EXPECT_EQ(s.rows, 3u);
  EXPECT_EQ(s.non_null, 3u);
  EXPECT_EQ(s.distinct, 2u);
}

// Counts read before an ingestion must not describe the column after it:
// the next Stats() call sees the appended rows.
TEST(ColumnStatsTest, AppendInvalidatesStats) {
  Column col("v", ValueType::kLong);
  col.Append(Value(int64_t{5}));
  ColumnStats before = col.Stats();
  EXPECT_EQ(before.rows, 1u);
  EXPECT_EQ(before.distinct, 1u);

  col.Append(Value(int64_t{100}));
  ColumnStats after = col.Stats();
  EXPECT_EQ(after.rows, 2u);
  EXPECT_EQ(after.non_null, 2u);
  EXPECT_EQ(after.distinct, 2u);
}

// First Stats() call from many threads at once: the lazy dictionary build
// behind `distinct` runs once and every reader sees the same counts
// (TSan-guarded via the concurrency label).
TEST(ColumnStatsTest, ConcurrentFirstBuildIsSafe) {
  Column col("v", ValueType::kLong);
  for (int i = 0; i < 1000; ++i) {
    col.Append(i % 11 == 0 ? Value() : Value(static_cast<int64_t>(i % 37)));
  }
  std::vector<std::thread> threads;
  std::vector<ColumnStats> stats(8);
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&col, &stats, t] { stats[t] = col.Stats(); });
  }
  for (auto& th : threads) th.join();
  for (const ColumnStats& s : stats) {
    EXPECT_EQ(s.rows, 1000u);
    EXPECT_EQ(s.non_null, 909u);  // 91 multiples of 11 in [0, 999] are NULL
    EXPECT_EQ(s.distinct, 37u);
  }
}

}  // namespace
}  // namespace db
}  // namespace aggchecker
