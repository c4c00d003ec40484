// ColumnStats (DESIGN.md §17): the lazily built per-column summary the
// verification-aware probes run on. Pins the aggregate semantics (finite
// cells only, NaN/inf flagged not folded), the invalidation contract
// (Append/Update discard stats exactly like the dictionary and flat view),
// and the thread-safety of concurrent first builds (run under TSan via the
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

  const ColumnStats& s = col.Stats();
  EXPECT_EQ(s.rows, 5u);
  EXPECT_EQ(s.non_null, 4u);
  EXPECT_EQ(s.distinct, 3u);  // {4, -3, 10}
  EXPECT_TRUE(s.numeric);
  EXPECT_EQ(s.finite_count, 4u);
  EXPECT_FALSE(s.has_non_finite);
  EXPECT_TRUE(s.integral);
  EXPECT_DOUBLE_EQ(s.min, -3.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_DOUBLE_EQ(s.sum_pos, 18.0);
  EXPECT_DOUBLE_EQ(s.sum_neg, -3.0);
  EXPECT_DOUBLE_EQ(s.max_abs, 10.0);
}

TEST(ColumnStatsTest, NonFiniteCellsFlaggedNotFolded) {
  Column col("v", ValueType::kDouble);
  col.Append(Value(2.5));
  col.Append(Value(std::nan("")));
  col.Append(Value(std::numeric_limits<double>::infinity()));
  col.Append(Value(-1.5));

  const ColumnStats& s = col.Stats();
  EXPECT_EQ(s.non_null, 4u);
  EXPECT_EQ(s.finite_count, 2u);
  EXPECT_TRUE(s.has_non_finite);
  EXPECT_FALSE(s.integral);  // 2.5 is not an integer
  // NaN/inf must not leak into the bounds: probes reason about the finite
  // cells, and any subset touching a non-finite cell evaluates "undefined".
  EXPECT_DOUBLE_EQ(s.min, -1.5);
  EXPECT_DOUBLE_EQ(s.max, 2.5);
  EXPECT_DOUBLE_EQ(s.sum_pos, 2.5);
  EXPECT_DOUBLE_EQ(s.sum_neg, -1.5);
  EXPECT_DOUBLE_EQ(s.max_abs, 2.5);
}

TEST(ColumnStatsTest, AllNullNumericColumnHasEmptyInterval) {
  Column col("v", ValueType::kDouble);
  col.Append(Value());
  col.Append(Value());

  const ColumnStats& s = col.Stats();
  EXPECT_EQ(s.rows, 2u);
  EXPECT_EQ(s.non_null, 0u);
  EXPECT_EQ(s.finite_count, 0u);
  // min > max: the empty interval — "no finite result attainable".
  EXPECT_GT(s.min, s.max);
}

TEST(ColumnStatsTest, StringColumnIsNotNumeric) {
  Column col("v", ValueType::kString);
  col.Append(Value(std::string("a")));
  col.Append(Value(std::string("b")));
  col.Append(Value(std::string("a")));

  const ColumnStats& s = col.Stats();
  EXPECT_FALSE(s.numeric);
  EXPECT_EQ(s.distinct, 2u);
  EXPECT_EQ(s.finite_count, 0u);
}

// The stale-stats regression at the heart of the invalidation contract: a
// probe bound computed before ingestion must not survive it. Append must
// discard cached stats exactly like the dictionary.
TEST(ColumnStatsTest, AppendInvalidatesStats) {
  Column col("v", ValueType::kLong);
  col.Append(Value(int64_t{5}));
  const ColumnStats& before = col.Stats();
  EXPECT_DOUBLE_EQ(before.max, 5.0);
  EXPECT_EQ(before.distinct, 1u);

  col.Append(Value(int64_t{100}));
  const ColumnStats& after = col.Stats();
  EXPECT_DOUBLE_EQ(after.max, 100.0);
  EXPECT_EQ(after.distinct, 2u);
  EXPECT_EQ(after.rows, 2u);
  EXPECT_DOUBLE_EQ(after.sum_pos, 105.0);
}

TEST(ColumnStatsTest, UpdateInvalidatesStats) {
  Column col("v", ValueType::kLong);
  col.Append(Value(int64_t{5}));
  col.Append(Value(int64_t{7}));
  EXPECT_DOUBLE_EQ(col.Stats().max, 7.0);

  col.Update(1, Value(int64_t{-2}));
  const ColumnStats& s = col.Stats();
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.min, -2.0);
  EXPECT_DOUBLE_EQ(s.sum_neg, -2.0);
}

// First Stats() build from many threads at once: one build wins, all
// readers see the same object (TSan-guarded via the concurrency label).
TEST(ColumnStatsTest, ConcurrentFirstBuildIsSafe) {
  Column col("v", ValueType::kLong);
  for (int i = 0; i < 1000; ++i) {
    col.Append(i % 11 == 0 ? Value() : Value(static_cast<int64_t>(i % 37)));
  }
  std::vector<std::thread> threads;
  std::vector<double> maxima(8, 0.0);
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&col, &maxima, t] {
      maxima[t] = col.Stats().max;
    });
  }
  for (auto& th : threads) th.join();
  for (double m : maxima) EXPECT_DOUBLE_EQ(m, 36.0);
}

}  // namespace
}  // namespace db
}  // namespace aggchecker
