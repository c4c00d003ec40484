// Column lazy-representation tests: flat typed views for the vectorized
// cube kernels, and the thread-safety regression for concurrent first
// builds of the lazy dictionary / flat view (run under TSan via the
// `concurrency` label). PR 2's parallel shell-fill workers could race the
// first BuildDictionary() on a shared column; builds are now guarded.

#include "db/column.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

namespace aggchecker {
namespace db {
namespace {

void FillLongColumn(Column& col, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) {
      col.Append(Value());  // NULL
    } else {
      col.Append(Value(static_cast<int64_t>(i % 101)));
    }
  }
}

TEST(ColumnFlatViewTest, LongColumnExposesLongsAndCoercedDoubles) {
  Column col("v", ValueType::kLong);
  col.Append(Value(int64_t{42}));
  col.Append(Value());
  col.Append(Value(int64_t{-7}));
  const Column::FlatView& flat = col.Flat();
  ASSERT_EQ(flat.size, 3u);
  ASSERT_NE(flat.longs, nullptr);
  ASSERT_NE(flat.doubles, nullptr);
  ASSERT_NE(flat.nulls, nullptr);
  EXPECT_EQ(flat.longs[0], 42);
  EXPECT_EQ(flat.longs[2], -7);
  EXPECT_DOUBLE_EQ(flat.doubles[0], 42.0);
  EXPECT_DOUBLE_EQ(flat.doubles[2], -7.0);
  EXPECT_EQ(flat.nulls[0], 0);
  EXPECT_EQ(flat.nulls[1], 1);
  EXPECT_EQ(flat.nulls[2], 0);
}

TEST(ColumnFlatViewTest, MixedDoubleColumnCoercesLikeToDouble) {
  // A DOUBLE-typed column may hold long cells; the flat view must show
  // exactly Value::ToDouble() of each, since the vectorized kernels must
  // see bit-for-bit what the row-at-a-time Aggregator sees.
  Column col("v", ValueType::kDouble);
  col.Append(Value(int64_t{3}));
  col.Append(Value(2.5));
  col.Append(Value(std::nan("")));
  col.Append(Value(std::nan("")));
  const Column::FlatView& flat = col.Flat();
  ASSERT_NE(flat.doubles, nullptr);
  EXPECT_EQ(flat.longs, nullptr);
  EXPECT_DOUBLE_EQ(flat.doubles[0], 3.0);
  EXPECT_DOUBLE_EQ(flat.doubles[1], 2.5);
  EXPECT_TRUE(std::isnan(flat.doubles[2]));
  EXPECT_TRUE(std::isnan(flat.doubles[3]));
  // NaN equals nothing, so each NaN cell gets a dictionary code of its own.
  EXPECT_EQ(col.Codes(), (std::vector<int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(col.DistinctValues().size(), 4u);
}

TEST(ColumnFlatViewTest, StringColumnHasOnlyNullFlags) {
  Column col("v", ValueType::kString);
  col.Append(Value("a"));
  col.Append(Value());
  const Column::FlatView& flat = col.Flat();
  EXPECT_EQ(flat.longs, nullptr);
  EXPECT_EQ(flat.doubles, nullptr);
  ASSERT_NE(flat.nulls, nullptr);
  EXPECT_EQ(flat.nulls[0], 0);
  EXPECT_EQ(flat.nulls[1], 1);
}

TEST(ColumnFlatViewTest, AppendInvalidatesFlatViewAndDictionary) {
  Column col("v", ValueType::kLong);
  col.Append(Value(int64_t{1}));
  EXPECT_EQ(col.Flat().size, 1u);
  EXPECT_EQ(col.Codes().size(), 1u);
  col.Append(Value(int64_t{2}));
  EXPECT_EQ(col.Flat().size, 2u);
  EXPECT_EQ(col.Flat().longs[1], 2);
  EXPECT_EQ(col.Codes().size(), 2u);
  EXPECT_EQ(col.DistinctValues().size(), 2u);
}

// Equal cells, NaN matching NaN (Value's operator== follows IEEE).
bool SameCell(const Value& a, const Value& b) {
  if (a.type() == ValueType::kDouble && b.type() == ValueType::kDouble &&
      std::isnan(a.AsDoubleExact()) && std::isnan(b.AsDoubleExact())) {
    return true;
  }
  return a == b;
}

// Ingestion is append-only (DESIGN.md §16): appending new values, repeats,
// NULLs and NaN cells never changes an existing row's code or the order of
// the distinct values already seen. New values take codes from the old
// distinct count upward, in appearance order, and each NaN cell takes a
// code of its own. Built and snapshot-loaded columns behave alike.
TEST(ColumnAppendTest, AppendsNeverChangeExistingCodes) {
  const double nan = std::nan("");
  Column source("v", ValueType::kDouble);
  for (const Value& v :
       {Value(1.5), Value(), Value(nan), Value(2.0), Value(1.5)}) {
    source.Append(v);
  }
  std::vector<uint8_t> tags;
  for (const Value& v : source.values()) {
    tags.push_back(static_cast<uint8_t>(v.type()));
  }
  ColumnSnapshotData data;
  data.rows = source.size();
  data.null_count = source.null_count();
  data.nulls = source.Flat().nulls;
  data.tags = tags.data();
  data.doubles = source.Flat().doubles;
  data.codes = source.Codes().data();
  data.distinct = source.DistinctValues();

  std::vector<std::unique_ptr<Column>> columns;
  columns.push_back(std::make_unique<Column>("v", ValueType::kDouble));
  for (const Value& v : source.values()) columns[0]->Append(v);
  columns.push_back(
      Column::FromSnapshot("v", ValueType::kDouble, std::move(data)));

  for (size_t k = 0; k < columns.size(); ++k) {
    SCOPED_TRACE(k == 0 ? "built column" : "snapshot column");
    Column& col = *columns[k];
    const std::vector<int32_t> old_codes = col.Codes();
    const std::vector<Value> old_distinct = col.DistinctValues();
    ASSERT_EQ(old_codes, (std::vector<int32_t>{0, -1, 1, 2, 0}));
    const int32_t n = static_cast<int32_t>(old_distinct.size());

    for (const Value& v : {Value(3.0), Value(1.5), Value(), Value(nan),
                           Value(2.0), Value(nan), Value(4.0), Value(3.0)}) {
      col.Append(v);
    }
    const std::vector<int32_t>& codes = col.Codes();
    ASSERT_EQ(codes.size(), old_codes.size() + 8);
    for (size_t r = 0; r < old_codes.size(); ++r) {
      EXPECT_EQ(codes[r], old_codes[r]) << "row " << r;
    }
    EXPECT_EQ(std::vector<int32_t>(codes.begin() + old_codes.size(),
                                   codes.end()),
              (std::vector<int32_t>{n, 0, -1, n + 1, 2, n + 2, n + 3, n}));

    const std::vector<Value>& distinct = col.DistinctValues();
    ASSERT_EQ(distinct.size(), old_distinct.size() + 4);
    for (size_t i = 0; i < old_distinct.size(); ++i) {
      EXPECT_TRUE(SameCell(distinct[i], old_distinct[i])) << "distinct " << i;
    }
    EXPECT_TRUE(SameCell(distinct[n], Value(3.0)));
    EXPECT_TRUE(SameCell(distinct[n + 1], Value(nan)));
    EXPECT_TRUE(SameCell(distinct[n + 2], Value(nan)));
    EXPECT_TRUE(SameCell(distinct[n + 3], Value(4.0)));
  }
}

// Regression (tsan): many threads hitting the *first* lazy dictionary
// build on a shared column must not race. Before the guard, concurrent
// BuildDictionary() calls mutated distinct_/codes_ unsynchronized.
TEST(ColumnConcurrencyTest, ConcurrentFirstDictionaryBuildIsSafe) {
  for (int round = 0; round < 4; ++round) {
    Column col("v", ValueType::kLong);
    FillLongColumn(col, 20000);
    std::vector<std::thread> threads;
    std::vector<size_t> distinct_sizes(8, 0);
    std::vector<int32_t> first_codes(8, -99);
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&col, &distinct_sizes, &first_codes, t] {
        distinct_sizes[static_cast<size_t>(t)] = col.DistinctValues().size();
        first_codes[static_cast<size_t>(t)] = col.Codes()[0];
      });
    }
    for (auto& thread : threads) thread.join();
    for (int t = 0; t < 8; ++t) {
      EXPECT_EQ(distinct_sizes[static_cast<size_t>(t)], 101u);
      EXPECT_EQ(first_codes[static_cast<size_t>(t)], 0);
    }
  }
}

// Same for the flat typed view, and for mixed dictionary + flat access —
// the two lazy builds share a mutex but have independent built flags.
TEST(ColumnConcurrencyTest, ConcurrentFlatAndDictionaryBuildsAreSafe) {
  for (int round = 0; round < 4; ++round) {
    Column col("v", ValueType::kLong);
    FillLongColumn(col, 20000);
    std::vector<std::thread> threads;
    std::vector<uint64_t> checksums(8, 0);
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&col, &checksums, t] {
        uint64_t sum = 0;
        if (t % 2 == 0) {
          const Column::FlatView& flat = col.Flat();
          for (size_t i = 0; i < flat.size; ++i) {
            if (!flat.nulls[i]) sum += static_cast<uint64_t>(flat.longs[i]);
          }
        } else {
          for (int32_t code : col.Codes()) {
            sum += code >= 0 ? static_cast<uint64_t>(code) : 1;
          }
        }
        checksums[static_cast<size_t>(t)] = sum;
      });
    }
    for (auto& thread : threads) thread.join();
    // All readers of the same representation agree.
    EXPECT_EQ(checksums[0], checksums[2]);
    EXPECT_EQ(checksums[0], checksums[4]);
    EXPECT_EQ(checksums[1], checksums[3]);
    EXPECT_EQ(checksums[1], checksums[5]);
  }
}

// Ingestion on a snapshot-backed column (DESIGN.md §16): concurrent
// first-touch Flat() readers on the zero-copy view are safe, and the first
// Append materializes the boxed values and detaches from the image — the
// rebuilt flat view owns its storage and includes the appended row. Run
// under TSan via the `concurrency` label: before the ingestion API, nothing
// ever appended to a FromSnapshot column.
TEST(ColumnConcurrencyTest, SnapshotColumnFlatReadersThenAppendDetaches) {
  constexpr size_t kRows = 4096;
  for (int round = 0; round < 4; ++round) {
    std::vector<uint8_t> nulls(kRows, 0);
    std::vector<uint8_t> tags(kRows, static_cast<uint8_t>(ValueType::kLong));
    std::vector<int64_t> longs(kRows);
    std::vector<double> doubles(kRows);
    std::vector<int32_t> codes(kRows);
    ColumnSnapshotData data;
    for (size_t r = 0; r < kRows; ++r) {
      longs[r] = static_cast<int64_t>(r % 101);
      doubles[r] = static_cast<double>(r % 101);
      codes[r] = static_cast<int32_t>(r % 101);
    }
    for (int64_t v = 0; v < 101; ++v) data.distinct.push_back(Value(v));
    data.rows = kRows;
    data.nulls = nulls.data();
    data.tags = tags.data();
    data.longs = longs.data();
    data.doubles = doubles.data();
    data.codes = codes.data();
    auto col = Column::FromSnapshot("v", ValueType::kLong, std::move(data));

    // Phase 1: concurrent readers before any mutation. The flat view is
    // zero-copy — it aliases the snapshot arrays.
    std::vector<std::thread> threads;
    std::vector<uint64_t> sums(8, 0);
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&col, &sums, t] {
        uint64_t sum = 0;
        if (t % 2 == 0) {
          const Column::FlatView& flat = col->Flat();
          for (size_t i = 0; i < flat.size; ++i) {
            sum += static_cast<uint64_t>(flat.longs[i]);
          }
        } else {
          // First values() call materializes the boxed cells lazily.
          for (const Value& v : col->values()) {
            sum += static_cast<uint64_t>(v.AsLong());
          }
        }
        sums[static_cast<size_t>(t)] = sum;
      });
    }
    for (auto& thread : threads) thread.join();
    for (int t = 1; t < 8; ++t) EXPECT_EQ(sums[static_cast<size_t>(t)], sums[0]);
    EXPECT_EQ(col->Flat().longs, longs.data()) << "flat view must be zero-copy";

    // Phase 2: single-writer append (the class contract excludes concurrent
    // readers during mutation). The column detaches from the image and every
    // derived representation rebuilds over owned storage.
    col->Append(Value(static_cast<int64_t>(7)));
    ASSERT_EQ(col->size(), kRows + 1);
    const Column::FlatView& flat = col->Flat();
    EXPECT_NE(flat.longs, longs.data()) << "Append must detach from the image";
    ASSERT_EQ(flat.size, kRows + 1);
    EXPECT_EQ(flat.longs[kRows], 7);
    EXPECT_EQ(flat.nulls[kRows], 0);
    EXPECT_EQ(col->DistinctValues().size(), 101u);
    EXPECT_EQ(col->Codes()[kRows], 7);

    // Phase 3: concurrent readers of the detached column are safe again.
    std::vector<std::thread> post;
    std::vector<size_t> sizes(4, 0);
    for (int t = 0; t < 4; ++t) {
      post.emplace_back([&col, &sizes, t] {
        sizes[static_cast<size_t>(t)] = col->Flat().size;
      });
    }
    for (auto& thread : post) thread.join();
    for (size_t s : sizes) EXPECT_EQ(s, kRows + 1);
  }
}

}  // namespace
}  // namespace db
}  // namespace aggchecker
