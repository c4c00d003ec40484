// Differential property test for the cube execution backends: on
// randomized schemas, joins, and cube specs — NULL-heavy columns, NaN/Inf
// measures, mixed long/double cells, high-cardinality dimensions, star
// aggregates — the vectorized combo-partitioned pipeline must produce
// results *bit-identical* to the row-at-a-time scalar oracle, for any
// thread count, and charge the same governor totals.

#include "db/cube.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/resource_governor.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace aggchecker {
namespace db {
namespace {

// Bit-exact comparison: nullopt only equals nullopt, values must match as
// raw bit patterns (catches sign-of-zero and NaN-payload drift that
// EXPECT_DOUBLE_EQ would miss).
bool BitEqual(const std::optional<double>& a, const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  uint64_t ab = 0, bb = 0;
  std::memcpy(&ab, &*a, sizeof(ab));
  std::memcpy(&bb, &*b, sizeof(bb));
  return ab == bb;
}

std::string Render(const std::optional<double>& v) {
  if (!v.has_value()) return "<missing>";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", *v);
  return buf;
}

struct CubeSpec {
  std::vector<ColumnRef> dims;
  std::vector<std::vector<Value>> literals;
  std::vector<CubeAggregate> aggs;
};

// A fact table with two dimension columns and three measure columns, plus
// (in join mode) a dimension table reached through a PK-FK edge with a
// dangling foreign key thrown in. `dim_card` controls dimension
// cardinality — small values stress bucket collisions, large values stress
// the per-block dictionaries of the vectorized pass 1.
Database MakeRandomDatabase(Rng& rng, size_t rows, size_t dim_card,
                            bool join_mode) {
  Database database("fuzz");
  Table fact("fact");
  EXPECT_TRUE(fact.AddColumn("d_str", ValueType::kString).ok());
  EXPECT_TRUE(fact.AddColumn("d_long", ValueType::kLong).ok());
  EXPECT_TRUE(fact.AddColumn("m_long", ValueType::kLong).ok());
  EXPECT_TRUE(fact.AddColumn("m_double", ValueType::kDouble).ok());
  EXPECT_TRUE(fact.AddColumn("fk", ValueType::kLong).ok());
  const size_t fk_card = join_mode ? 8 : 1;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    // NULL-heavy string dimension.
    if (rng.NextBool(0.25)) {
      row.emplace_back();
    } else {
      row.emplace_back(strings::Format(
          "s%" PRIu64, rng.NextBounded(static_cast<uint64_t>(dim_card))));
    }
    // Long dimension, occasionally NULL.
    if (rng.NextBool(0.1)) {
      row.emplace_back();
    } else {
      row.emplace_back(static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(dim_card * 3))));
    }
    // Long measure.
    if (rng.NextBool(0.2)) {
      row.emplace_back();
    } else {
      row.emplace_back(static_cast<int64_t>(rng.NextInt(-50, 50)));
    }
    // Double measure: NULLs, NaN, +/-Inf, long-typed cells in a
    // double-typed column (type coercion), and plain doubles.
    double roll = rng.NextDouble();
    if (roll < 0.1) {
      row.emplace_back();
    } else if (roll < 0.15) {
      row.emplace_back(std::numeric_limits<double>::quiet_NaN());
    } else if (roll < 0.2) {
      row.emplace_back(rng.NextBool(0.5)
                           ? std::numeric_limits<double>::infinity()
                           : -std::numeric_limits<double>::infinity());
    } else if (roll < 0.3) {
      row.emplace_back(static_cast<int64_t>(rng.NextInt(-9, 9)));
    } else {
      row.emplace_back(rng.NextDouble() * 200.0 - 100.0);
    }
    // Foreign key; id `fk_card` dangles (no dim row), exercising the
    // inner-join row filter.
    row.emplace_back(static_cast<int64_t>(rng.NextBounded(
        static_cast<uint64_t>(fk_card) + (join_mode ? 1 : 0))));
    EXPECT_TRUE(fact.AddRow(std::move(row)).ok());
  }
  EXPECT_TRUE(database.AddTable(std::move(fact)).ok());
  if (join_mode) {
    Table dim("dim");
    EXPECT_TRUE(dim.AddColumn("id", ValueType::kLong).ok());
    EXPECT_TRUE(dim.AddColumn("region", ValueType::kString).ok());
    const char* regions[] = {"north", "south", "east", "west"};
    for (size_t i = 0; i < fk_card; ++i) {
      EXPECT_TRUE(dim.AddRow({Value(static_cast<int64_t>(i)),
                              Value(std::string(regions[i % 4]))})
                      .ok());
    }
    EXPECT_TRUE(database.AddTable(std::move(dim)).ok());
    EXPECT_TRUE(
        database.AddForeignKey({"fact", "fk"}, {"dim", "id"}).ok());
  }
  return database;
}

void MakeRandomSpec(Rng& rng, const Database& database, bool join_mode,
                    CubeSpec* spec) {
  std::vector<ColumnRef> dim_pool = {{"fact", "d_str"}, {"fact", "d_long"}};
  if (join_mode) dim_pool.push_back({"dim", "region"});
  rng.Shuffle(&dim_pool);
  size_t nd = static_cast<size_t>(rng.NextInt(1, 3));
  for (size_t d = 0; d < nd && d < dim_pool.size(); ++d) {
    const Column* col = database.FindColumn(dim_pool[d]);
    ASSERT_NE(col, nullptr) << dim_pool[d].ToString();
    std::vector<Value> value_pool = col->DistinctValues();
    rng.Shuffle(&value_pool);
    size_t nl = std::min<size_t>(
        value_pool.size(), static_cast<size_t>(rng.NextInt(1, 4)));
    std::vector<Value> lits(value_pool.begin(), value_pool.begin() + nl);
    // Sometimes a literal that matches nothing (empty bucket).
    if (rng.NextBool(0.3)) lits.emplace_back(std::string("zzz-absent"));
    spec->dims.push_back(dim_pool[d]);
    spec->literals.push_back(std::move(lits));
  }
  // Aggregate pool covering every base function, star and column forms,
  // and both typed measures.
  auto agg = [](AggFn fn, const char* column) {
    CubeAggregate a;
    a.fn = fn;
    if (column != nullptr) a.column = {"fact", column};
    return a;
  };
  std::vector<CubeAggregate> pool = {
      agg(AggFn::kCount, nullptr),
      agg(AggFn::kCount, "m_long"),
      agg(AggFn::kCountDistinct, "m_double"),
      agg(AggFn::kCountDistinct, "d_long"),
      agg(AggFn::kSum, "m_double"),
      agg(AggFn::kSum, "m_long"),
      agg(AggFn::kAvg, "m_double"),
      agg(AggFn::kMin, "m_double"),
      agg(AggFn::kMax, "m_double"),
      agg(AggFn::kMax, "m_long"),
  };
  rng.Shuffle(&pool);
  size_t na = static_cast<size_t>(rng.NextInt(2, 6));
  spec->aggs.assign(pool.begin(),
                    pool.begin() + static_cast<long>(std::min(na, pool.size())));
}

// Enumerates every representable key (all/default/each literal, per
// dimension) and asserts bit-identical lookups across two cubes.
void ExpectCubesBitIdentical(const CubeResult& expected,
                             const CubeResult& actual,
                             const std::string& label) {
  ASSERT_EQ(expected.num_cells(), actual.num_cells()) << label;
  size_t nd = expected.dims().size();
  std::vector<std::vector<int16_t>> axis(nd);
  for (size_t d = 0; d < nd; ++d) {
    axis[d].push_back(kAllBucket);
    axis[d].push_back(kDefaultBucket);
    for (size_t i = 0; i < expected.literals()[d].size(); ++i) {
      axis[d].push_back(static_cast<int16_t>(i));
    }
  }
  std::vector<int16_t> key(nd, 0);
  std::vector<size_t> pos(nd, 0);
  size_t checked = 0;
  while (true) {
    for (size_t d = 0; d < nd; ++d) key[d] = axis[d][pos[d]];
    for (size_t a = 0; a < expected.aggregates().size(); ++a) {
      std::optional<double> want = expected.Lookup(key, a);
      std::optional<double> got = actual.Lookup(key, a);
      ASSERT_TRUE(BitEqual(want, got))
          << label << " " << expected.aggregates()[a].Key()
          << " key[" << (nd > 0 ? std::to_string(key[0]) : "") << "...]"
          << " oracle=" << Render(want) << " vectorized=" << Render(got);
      ++checked;
    }
    // Odometer increment over the key space.
    size_t d = 0;
    while (d < nd && ++pos[d] == axis[d].size()) pos[d++] = 0;
    if (d == nd) break;
    if (nd == 0) break;
  }
  ASSERT_GT(checked, 0u) << label;
}

struct ExecOutcome {
  std::shared_ptr<CubeResult> cube;
  GovernorUsage usage;
};

/// Materializes `spec` in `mode`: through ExecuteCube when `pool` is null,
/// otherwise as the engine does, scanning the row blocks concurrently on
/// `pool` before the serial block-order fold in Finish.
ExecOutcome RunCube(const Database& database, const CubeSpec& spec,
                    CubeExecMode mode, ThreadPool* pool) {
  ExecOutcome out;
  ResourceGovernor governor;
  CubeExecOptions options;
  options.mode = mode;
  auto cube =
      std::make_shared<CubeResult>(spec.dims, spec.literals, spec.aggs);
  Status status = Status::OK();
  if (pool == nullptr) {
    status = ExecuteCubeInto(database, *cube, nullptr, &governor, options);
  } else {
    CubeExecution exec;
    status = exec.Prepare(database, cube.get(), nullptr, &governor, options);
    std::vector<Status> scans(status.ok() ? exec.num_blocks() : 0);
    pool->ParallelFor(0, scans.size(),
                      [&](size_t b) { scans[b] = exec.ScanBlock(b); });
    for (const Status& scan : scans) {
      if (status.ok()) status = scan;
    }
    if (status.ok()) status = exec.Finish();
  }
  EXPECT_TRUE(status.ok()) << status.ToString();
  if (status.ok()) out.cube = cube;
  out.usage = governor.usage();
  return out;
}

TEST(CubeVectorizedDiffTest, RandomizedCubesMatchScalarOracleBitExact) {
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (int trial = 0; trial < 24; ++trial) {
    Rng rng(9000 + static_cast<uint64_t>(trial));
    const bool join_mode = trial % 2 == 1;
    // Trial 0 exceeds the 4096-row block size so pass 1 runs multi-block
    // (and, with the pools below, genuinely in parallel); a high-card
    // trial stresses per-block dictionaries and the translation fold.
    const size_t rows =
        trial == 0 ? 10000
                   : static_cast<size_t>(rng.NextInt(50, 800));
    const size_t dim_card =
        trial % 5 == 2 ? 500 : static_cast<size_t>(rng.NextInt(2, 12));
    Database database = MakeRandomDatabase(rng, rows, dim_card, join_mode);
    CubeSpec spec;
    MakeRandomSpec(rng, database, join_mode, &spec);
    SCOPED_TRACE(strings::Format("trial %d rows=%zu card=%zu %s", trial, rows,
                                 dim_card, join_mode ? "join" : "single"));

    ExecOutcome oracle =
        RunCube(database, spec, CubeExecMode::kScalarOracle, nullptr);
    ExecOutcome serial =
        RunCube(database, spec, CubeExecMode::kVectorized, nullptr);
    ExecOutcome threaded2 =
        RunCube(database, spec, CubeExecMode::kVectorized, &pool2);
    ExecOutcome threaded8 =
        RunCube(database, spec, CubeExecMode::kVectorized, &pool8);
    ASSERT_TRUE(oracle.cube && serial.cube && threaded2.cube &&
                threaded8.cube);

    ExpectCubesBitIdentical(*oracle.cube, *serial.cube, "serial");
    ExpectCubesBitIdentical(*oracle.cube, *threaded2.cube, "2 threads");
    ExpectCubesBitIdentical(*oracle.cube, *threaded8.cube, "8 threads");

    // Governor accounting is mode- and thread-invariant on clean runs:
    // both backends model the same join/combo/group state.
    for (const ExecOutcome* other : {&serial, &threaded2, &threaded8}) {
      EXPECT_EQ(oracle.usage.rows_charged, other->usage.rows_charged);
      EXPECT_EQ(oracle.usage.cube_groups_charged,
                other->usage.cube_groups_charged);
      EXPECT_EQ(oracle.usage.memory_bytes_charged,
                other->usage.memory_bytes_charged);
    }
  }
}

// COUNT DISTINCT shapes the randomized trials never draw, in one d = 4
// cube (16-way fanout) over a fact ⋈ dim relation of three row blocks: a
// string column, a join-side column read through the join's row index, a
// near-unique key, a double column that is mostly NaN (each NaN its own
// dictionary code) with ±0.0 and long-typed cells mixed in, and an all-NULL
// column, which must count 0 in every materialized group.
TEST(CubeVectorizedDiffTest, CountDistinctShapesMatchOracle) {
  constexpr size_t kRows = 2 * ResourceGovernor::kCheckIntervalRows + 512;
  constexpr int64_t kDimRows = 12;
  Rng rng(4242);
  size_t unique_keys = 0;
  Database database("distinct");
  Table fact("fact");
  ASSERT_TRUE(fact.AddColumn("d_str", ValueType::kString).ok());
  ASSERT_TRUE(fact.AddColumn("d_long", ValueType::kLong).ok());
  ASSERT_TRUE(fact.AddColumn("key", ValueType::kLong).ok());
  ASSERT_TRUE(fact.AddColumn("name", ValueType::kString).ok());
  ASSERT_TRUE(fact.AddColumn("mostly_nan", ValueType::kDouble).ok());
  ASSERT_TRUE(fact.AddColumn("all_null", ValueType::kLong).ok());
  ASSERT_TRUE(fact.AddColumn("fk", ValueType::kLong).ok());
  for (size_t r = 0; r < kRows; ++r) {
    std::vector<Value> row;
    if (rng.NextBool(0.1)) {
      row.emplace_back();
    } else {
      row.emplace_back(std::string("s") + std::to_string(rng.NextBounded(3)));
    }
    row.emplace_back(static_cast<int64_t>(rng.NextBounded(4)));
    // Near-unique: every 50th row repeats its predecessor's key.
    const bool repeat = r % 50 == 49;
    unique_keys += repeat ? 0 : 1;
    row.emplace_back(static_cast<int64_t>(repeat ? r - 1 : r));
    row.emplace_back(std::string("n") + std::to_string(rng.NextBounded(300)));
    const double roll = rng.NextDouble();
    if (roll < 0.55) {
      row.emplace_back(std::numeric_limits<double>::quiet_NaN());
    } else if (roll < 0.65) {
      row.emplace_back(0.0);
    } else if (roll < 0.75) {
      row.emplace_back(-0.0);
    } else if (roll < 0.85) {
      row.emplace_back(static_cast<int64_t>(rng.NextBounded(6)));
    } else if (roll < 0.9) {
      row.emplace_back();
    } else {
      row.emplace_back(static_cast<double>(rng.NextBounded(6)));
    }
    row.emplace_back();
    row.emplace_back(static_cast<int64_t>(
        rng.NextBounded(static_cast<uint64_t>(kDimRows))));
    ASSERT_TRUE(fact.AddRow(std::move(row)).ok());
  }
  ASSERT_TRUE(database.AddTable(std::move(fact)).ok());
  Table dim("dim");
  ASSERT_TRUE(dim.AddColumn("id", ValueType::kLong).ok());
  ASSERT_TRUE(dim.AddColumn("region", ValueType::kString).ok());
  ASSERT_TRUE(dim.AddColumn("tier", ValueType::kLong).ok());
  ASSERT_TRUE(dim.AddColumn("city", ValueType::kString).ok());
  const char* regions[] = {"north", "south", "east", "west"};
  for (int64_t i = 0; i < kDimRows; ++i) {
    ASSERT_TRUE(dim.AddRow({Value(i), Value(std::string(regions[i % 4])),
                            Value(i % 3),
                            Value(std::string("c") + std::to_string(i / 2))})
                    .ok());
  }
  ASSERT_TRUE(database.AddTable(std::move(dim)).ok());
  ASSERT_TRUE(database.AddForeignKey({"fact", "fk"}, {"dim", "id"}).ok());

  // Each dimension leaves some values to the default bucket.
  CubeSpec spec;
  spec.dims = {{"fact", "d_str"}, {"fact", "d_long"}, {"dim", "region"},
               {"dim", "tier"}};
  spec.literals = {
      {Value(std::string("s0")), Value(std::string("s1"))},
      {Value(static_cast<int64_t>(0)), Value(static_cast<int64_t>(1)),
       Value(static_cast<int64_t>(2))},
      {Value(std::string("north")), Value(std::string("east")),
       Value(std::string("zzz-absent"))},
      {Value(static_cast<int64_t>(0)), Value(static_cast<int64_t>(1))}};
  auto distinct = [](const char* table, const char* column) {
    CubeAggregate a;
    a.fn = AggFn::kCountDistinct;
    a.column = {table, column};
    return a;
  };
  spec.aggs = {CubeAggregate{},  // Count(*): marks materialized groups
               distinct("fact", "name"),       distinct("dim", "city"),
               distinct("fact", "key"),        distinct("fact", "mostly_nan"),
               distinct("fact", "all_null")};
  constexpr size_t kAllNull = 5;

  ThreadPool pool2(2);
  ThreadPool pool8(8);
  ExecOutcome oracle =
      RunCube(database, spec, CubeExecMode::kScalarOracle, nullptr);
  ExecOutcome serial =
      RunCube(database, spec, CubeExecMode::kVectorized, nullptr);
  ExecOutcome threaded2 =
      RunCube(database, spec, CubeExecMode::kVectorized, &pool2);
  ExecOutcome threaded8 =
      RunCube(database, spec, CubeExecMode::kVectorized, &pool8);
  ASSERT_TRUE(oracle.cube && serial.cube && threaded2.cube && threaded8.cube);
  ASSERT_GT(oracle.cube->charges.rows,
            2 * ResourceGovernor::kCheckIntervalRows);

  ExpectCubesBitIdentical(*oracle.cube, *serial.cube, "serial");
  ExpectCubesBitIdentical(*oracle.cube, *threaded2.cube, "2 threads");
  ExpectCubesBitIdentical(*oracle.cube, *threaded8.cube, "8 threads");
  for (const ExecOutcome* other : {&serial, &threaded2, &threaded8}) {
    EXPECT_EQ(oracle.usage.rows_charged, other->usage.rows_charged);
    EXPECT_EQ(oracle.usage.cube_groups_charged,
              other->usage.cube_groups_charged);
    EXPECT_EQ(oracle.usage.memory_bytes_charged,
              other->usage.memory_bytes_charged);
  }

  // Every materialized group holds a 0 for the all-NULL column, and the
  // whole-relation group sees every distinct non-NULL value.
  size_t materialized = 0;
  for (int16_t a : {kAllBucket, kDefaultBucket, int16_t{0}}) {
    for (int16_t b : {kAllBucket, kDefaultBucket, int16_t{0}, int16_t{2}}) {
      for (int16_t c : {kAllBucket, kDefaultBucket, int16_t{0}, int16_t{2}}) {
        for (int16_t t : {kAllBucket, kDefaultBucket, int16_t{1}}) {
          if (!serial.cube->Lookup({a, b, c, t}, 0).has_value()) continue;
          ++materialized;
          EXPECT_EQ(serial.cube->Lookup({a, b, c, t}, kAllNull),
                    std::optional<double>(0.0));
        }
      }
    }
  }
  EXPECT_GT(materialized, 100u);
  const std::vector<int16_t> all(4, kAllBucket);
  EXPECT_EQ(serial.cube->Lookup(all, 2), std::optional<double>(6.0));
  EXPECT_EQ(serial.cube->Lookup(all, 3),
            std::optional<double>(static_cast<double>(unique_keys)));
}

// An all-rows-identical column collapses to one combo; an all-NULL measure
// must leave Sum/Avg/Min/Max cells missing in both backends.
TEST(CubeVectorizedDiffTest, DegenerateColumnsMatch) {
  Database database("degen");
  Table fact("fact");
  ASSERT_TRUE(fact.AddColumn("d", ValueType::kString).ok());
  ASSERT_TRUE(fact.AddColumn("m", ValueType::kDouble).ok());
  for (int r = 0; r < 100; ++r) {
    ASSERT_TRUE(fact.AddRow({Value(std::string("same")), Value()}).ok());
  }
  ASSERT_TRUE(database.AddTable(std::move(fact)).ok());
  CubeSpec spec;
  spec.dims = {{"fact", "d"}};
  spec.literals = {{Value(std::string("same"))}};
  CubeAggregate sum;
  sum.fn = AggFn::kSum;
  sum.column = {"fact", "m"};
  CubeAggregate min;
  min.fn = AggFn::kMin;
  min.column = {"fact", "m"};
  CubeAggregate count;
  spec.aggs = {count, sum, min};
  ExecOutcome oracle =
      RunCube(database, spec, CubeExecMode::kScalarOracle, nullptr);
  ExecOutcome vectorized =
      RunCube(database, spec, CubeExecMode::kVectorized, nullptr);
  ASSERT_TRUE(oracle.cube && vectorized.cube);
  ExpectCubesBitIdentical(*oracle.cube, *vectorized.cube, "degenerate");
  EXPECT_DOUBLE_EQ(vectorized.cube->Lookup({0}, 0).value(), 100.0);
  EXPECT_FALSE(vectorized.cube->Lookup({0}, 1).has_value());
  EXPECT_FALSE(vectorized.cube->Lookup({0}, 2).has_value());
}

}  // namespace
}  // namespace db
}  // namespace aggchecker
