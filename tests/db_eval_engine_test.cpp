#include "db/eval_engine.h"

#include <gtest/gtest.h>

#include "db/relation_cache.h"
#include "test_fixtures.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aggchecker {
namespace db {
namespace {

using testing_fixtures::CountStar;
using testing_fixtures::MakeNflDatabase;
using testing_fixtures::MakeOrdersDatabase;

SimpleAggregateQuery IndefCount() {
  return CountStar("nflsuspensions", {{{"nflsuspensions", "Games"},
                                       Value(std::string("indef"))}});
}

TEST(EvalEngineTest, NaiveMatchesDirectExecutor) {
  auto database = MakeNflDatabase();
  EvalEngine engine(&database, EvalStrategy::kNaive);
  EXPECT_DOUBLE_EQ(engine.Evaluate(IndefCount()).value(), 4.0);
  EXPECT_EQ(engine.stats().cube_queries, 0u);
}

TEST(EvalEngineTest, MergedGroupsQueriesIntoOneCube) {
  auto database = MakeNflDatabase();
  EvalEngine engine(&database, EvalStrategy::kMerged);
  // Four candidates sharing the predicate column set {Games, Category},
  // with two different aggregates: one cube query suffices.
  std::vector<SimpleAggregateQuery> batch;
  for (const char* cat : {"gambling", "substance abuse repeated offense"}) {
    auto q = IndefCount();
    q.predicates.push_back(
        {{"nflsuspensions", "Category"}, Value(std::string(cat))});
    batch.push_back(q);
    q.fn = AggFn::kCountDistinct;
    q.agg_column = {"nflsuspensions", "Team"};
    batch.push_back(q);
  }
  auto results = engine.EvaluateBatch(batch);
  EXPECT_DOUBLE_EQ(results[0].value(), 1.0);
  EXPECT_DOUBLE_EQ(results[1].value(), 1.0);
  EXPECT_DOUBLE_EQ(results[2].value(), 3.0);
  EXPECT_DOUBLE_EQ(results[3].value(), 3.0);
  EXPECT_EQ(engine.stats().cube_queries, 1u);
}

TEST(EvalEngineTest, CacheHitsAcrossBatches) {
  auto database = MakeNflDatabase();
  EvalEngine engine(&database, EvalStrategy::kMergedCached);
  auto q = IndefCount();
  (void)engine.EvaluateBatch({q});
  EXPECT_EQ(engine.stats().cache_misses, 1u);
  EXPECT_EQ(engine.stats().cube_queries, 1u);
  // Second identical batch: fully served from cache.
  auto results = engine.EvaluateBatch({q});
  EXPECT_DOUBLE_EQ(results[0].value(), 4.0);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(engine.stats().cube_queries, 1u);
}

TEST(EvalEngineTest, RollupReuseFromSupersetDims) {
  auto database = MakeNflDatabase();
  EvalEngine engine(&database, EvalStrategy::kMergedCached);
  // Prime the cache with a two-dimension cube.
  auto two = IndefCount();
  two.predicates.push_back(
      {{"nflsuspensions", "Category"}, Value(std::string("gambling"))});
  (void)engine.EvaluateBatch({two});
  size_t cubes_before = engine.stats().cube_queries;
  // A one-dimension query on Games is answerable from the cached cube's
  // rollup cells — no new cube execution.
  auto one = IndefCount();
  auto results = engine.EvaluateBatch({one});
  EXPECT_DOUBLE_EQ(results[0].value(), 4.0);
  EXPECT_EQ(engine.stats().cube_queries, cubes_before);
  EXPECT_GE(engine.stats().cache_hits, 1u);
}

TEST(EvalEngineTest, CacheMissOnNewLiteral) {
  auto database = MakeNflDatabase();
  EvalEngine engine(&database, EvalStrategy::kMergedCached);
  (void)engine.EvaluateBatch({IndefCount()});
  // Same dims but a literal outside the cached relevant set -> re-execute.
  auto q = CountStar("nflsuspensions",
                     {{{"nflsuspensions", "Games"},
                       Value(std::string("16"))}});
  auto results = engine.EvaluateBatch({q});
  EXPECT_DOUBLE_EQ(results[0].value(), 1.0);
  EXPECT_EQ(engine.stats().cube_queries, 2u);
}

TEST(EvalEngineTest, ClearCacheForcesReexecution) {
  auto database = MakeNflDatabase();
  EvalEngine engine(&database, EvalStrategy::kMergedCached);
  (void)engine.EvaluateBatch({IndefCount()});
  engine.ClearCache();
  (void)engine.EvaluateBatch({IndefCount()});
  EXPECT_EQ(engine.stats().cube_queries, 2u);
}

TEST(EvalEngineTest, InvalidQueryYieldsNulloptInAllStrategies) {
  // The orders/customers PK-FK pair plus a table no foreign key reaches.
  auto database = MakeOrdersDatabase();
  {
    Table suppliers("suppliers");
    ASSERT_TRUE(suppliers.AddColumn("name", ValueType::kString).ok());
    ASSERT_TRUE(suppliers.AddRow({Value("acme")}).ok());
    ASSERT_TRUE(database.AddTable(std::move(suppliers)).ok());
  }
  auto query = [](AggFn fn, ColumnRef agg, std::vector<Predicate> preds) {
    SimpleAggregateQuery q;
    q.fn = fn;
    q.agg_column = std::move(agg);
    q.predicates = std::move(preds);
    return q;
  };
  const Predicate east{{"customers", "region"}, Value("east")};
  struct Shape {
    const char* label;
    SimpleAggregateQuery query;
    bool valid;
  };
  const std::vector<Shape> shapes = {
      {"sum over a string column",
       query(AggFn::kSum, {"customers", "region"}, {}), false},
      {"unknown aggregation column",
       query(AggFn::kSum, {"orders", "nosuch"}, {}), false},
      {"unknown predicate column",
       CountStar("orders", {{{"orders", "nosuch"}, Value(int64_t{1})}}),
       false},
      {"count(*) over an unknown table", CountStar("nosuch"), false},
      {"avg over *", query(AggFn::kAvg, {"orders", ""}, {}), false},
      {"conditional probability without a predicate",
       query(AggFn::kConditionalProbability, {"orders", ""}, {}), false},
      {"predicates on two tables with no FK path",
       CountStar("orders", {{{"suppliers", "name"}, Value("acme")}}), false},
      {"case-variant spelling of a column",
       query(AggFn::kSum, {"ORDERS", "Amount"},
             {{{"Customers", "REGION"}, Value("east")}}),
       true},
  };
  // Valid queries the shapes are mixed with in one batch.
  const std::vector<SimpleAggregateQuery> valid = {
      CountStar("orders", {east}),
      query(AggFn::kSum, {"orders", "amount"}, {}),
      query(AggFn::kPercentage, {"orders", ""}, {east}),
      query(AggFn::kAvg, {"orders", "amount"},
            {{{"orders", "customer_id"}, Value(int64_t{1})}}),
  };

  // Each shape alone, on a fresh engine of every strategy, answers as naive
  // does: nothing for the invalid shapes, the value for the valid one.
  for (const Shape& shape : shapes) {
    EvalEngine naive(&database, EvalStrategy::kNaive);
    const std::optional<double> expected = naive.Evaluate(shape.query);
    EXPECT_EQ(expected.has_value(), shape.valid) << shape.label;
    for (auto strategy : {EvalStrategy::kMerged, EvalStrategy::kMergedCached}) {
      EvalEngine engine(&database, strategy);
      EXPECT_EQ(engine.Evaluate(shape.query), expected)
          << shape.label << " on " << EvalStrategyName(strategy);
    }
  }

  // All shapes interleaved with the valid queries in one batch, at 1, 2 and
  // 8 threads: every strategy returns naive's one-thread answers.
  std::vector<SimpleAggregateQuery> batch;
  for (size_t i = 0; i < shapes.size(); ++i) {
    batch.push_back(valid[i % valid.size()]);
    batch.push_back(shapes[i].query);
  }
  EvalEngine reference(&database, EvalStrategy::kNaive);
  const auto expected = reference.EvaluateBatch(batch);
  for (size_t i = 0; i < shapes.size(); ++i) {
    EXPECT_TRUE(expected[2 * i].has_value());
    EXPECT_EQ(expected[2 * i + 1].has_value(), shapes[i].valid)
        << shapes[i].label;
  }
  for (size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (auto strategy : {EvalStrategy::kNaive, EvalStrategy::kMerged,
                          EvalStrategy::kMergedCached}) {
      EvalEngine engine(&database, strategy);
      if (threads > 1) engine.SetThreadPool(&pool);
      EXPECT_EQ(engine.EvaluateBatch(batch), expected)
          << EvalStrategyName(strategy) << " at " << threads << " threads";
    }
  }
}

TEST(EvalEngineTest, UnsatisfiablePredicatesConsistent) {
  auto database = MakeNflDatabase();
  auto q = CountStar(
      "nflsuspensions",
      {{{"nflsuspensions", "Games"}, Value(std::string("indef"))},
       {{"nflsuspensions", "Games"}, Value(std::string("16"))}});
  for (auto strategy : {EvalStrategy::kNaive, EvalStrategy::kMerged,
                        EvalStrategy::kMergedCached}) {
    EvalEngine engine(&database, strategy);
    EXPECT_DOUBLE_EQ(engine.Evaluate(q).value(), 0.0);
  }
}

TEST(EvalEngineTest, DuplicateIdenticalPredicatesDeduped) {
  auto database = MakeNflDatabase();
  auto q = IndefCount();
  q.predicates.push_back(q.predicates[0]);
  for (auto strategy : {EvalStrategy::kNaive, EvalStrategy::kMerged,
                        EvalStrategy::kMergedCached}) {
    EvalEngine engine(&database, strategy);
    EXPECT_DOUBLE_EQ(engine.Evaluate(q).value(), 4.0);
  }
}

TEST(EvalEngineTest, RatioAggregatesViaCube) {
  auto database = MakeNflDatabase();
  EvalEngine engine(&database, EvalStrategy::kMerged);
  SimpleAggregateQuery pct;
  pct.fn = AggFn::kPercentage;
  pct.agg_column = {"nflsuspensions", "Category"};
  pct.predicates = {
      {{"nflsuspensions", "Category"}, Value(std::string("gambling"))}};
  EXPECT_DOUBLE_EQ(engine.Evaluate(pct).value(), 10.0);

  SimpleAggregateQuery cp;
  cp.fn = AggFn::kConditionalProbability;
  cp.agg_column = {"nflsuspensions", ""};
  cp.predicates = {
      {{"nflsuspensions", "Games"}, Value(std::string("indef"))},
      {{"nflsuspensions", "Category"},
       Value(std::string("substance abuse repeated offense"))}};
  EXPECT_DOUBLE_EQ(engine.Evaluate(cp).value(), 75.0);
}


TEST(EvalEngineTest, CrossRelationQueriesNeverShareCubes) {
  // Regression test for the join-merging bug: Count(*) over a base table
  // must not be answered from a cube built over a PK-FK join (the join
  // multiplies FK-side rows and drops dangling ones).
  auto database = MakeOrdersDatabase();
  EvalEngine engine(&database, EvalStrategy::kMergedCached);

  SimpleAggregateQuery count_customers = CountStar("customers");
  SimpleAggregateQuery count_orders = CountStar("orders");
  SimpleAggregateQuery count_joined = CountStar(
      "orders", {{{"customers", "region"}, Value(std::string("east"))}});
  auto results =
      engine.EvaluateBatch({count_customers, count_orders, count_joined});
  EXPECT_DOUBLE_EQ(results[0].value(), 3.0);  // base table, not join
  EXPECT_DOUBLE_EQ(results[1].value(), 5.0);  // dangling row included
  EXPECT_DOUBLE_EQ(results[2].value(), 3.0);  // joined count

  // And cached entries stay relation-scoped: re-ask the base-table counts
  // after the join cube exists.
  auto again = engine.EvaluateBatch({count_customers, count_orders});
  EXPECT_DOUBLE_EQ(again[0].value(), 3.0);
  EXPECT_DOUBLE_EQ(again[1].value(), 5.0);
}

TEST(EvalEngineTest, JoinsBuiltOncePerTableSetPerRun) {
  // Acceptance property of the shared relation cache: in merged/cached
  // mode a checking run materializes each distinct table set at most once,
  // no matter how many batches, claims, or EM iterations ask for it.
  auto database = MakeOrdersDatabase();
  database.relation_cache().Clear();
  EvalEngine engine(&database, EvalStrategy::kMergedCached);

  SimpleAggregateQuery joined = CountStar(
      "orders", {{{"customers", "region"}, Value(std::string("east"))}});
  SimpleAggregateQuery joined_sum = joined;
  joined_sum.fn = AggFn::kSum;
  joined_sum.agg_column = {"orders", "amount"};

  // Several batches over the same two-table relation (different aggregates,
  // so the second batch misses the result cache and runs a new cube).
  (void)engine.EvaluateBatch({joined});
  (void)engine.EvaluateBatch({joined_sum});
  (void)engine.EvaluateBatch({joined, joined_sum});
  EXPECT_EQ(engine.stats().joins_built, 1u);
  EXPECT_GE(engine.stats().join_cache_hits, 1u);
  EXPECT_GE(engine.stats().cube_queries, 2u);

  // A second engine over the same database reuses the shared cache: zero
  // further builds.
  EvalEngine second(&database, EvalStrategy::kMerged);
  (void)second.EvaluateBatch({joined, joined_sum});
  EXPECT_EQ(second.stats().joins_built, 0u);
  EXPECT_GE(second.stats().join_cache_hits, 1u);
}

TEST(EvalEngineTest, RelationKeyCanonical) {
  SimpleAggregateQuery q = CountStar(
      "orders", {{{"customers", "region"}, Value(std::string("east"))}});
  SimpleAggregateQuery r;
  r.fn = AggFn::kCount;
  r.agg_column = {"customers", ""};
  r.predicates = {{{"orders", "id"}, Value(int64_t{1})}};
  // Same table set in different roles -> same relation key.
  EXPECT_EQ(EvalEngine::RelationKey(q), EvalEngine::RelationKey(r));
  EXPECT_NE(EvalEngine::RelationKey(q),
            EvalEngine::RelationKey(CountStar("orders")));
}

// ---------------------------------------------------------------------------
// Property test: on randomized databases and query batches, all strategies
// return identical results. This is the core correctness invariant behind
// Table 6 (the optimizations must not change any answer).
// ---------------------------------------------------------------------------

Database MakeRandomDatabase(Rng* rng) {
  Database database("random");
  Table t("data");
  const int num_cat_cols = 2;
  (void)t.AddColumn("metric", ValueType::kLong);
  (void)t.AddColumn("cat0", ValueType::kString);
  (void)t.AddColumn("cat1", ValueType::kString);
  (void)t.AddColumn("dim_id", ValueType::kLong);
  const char* kCats[] = {"alpha", "beta", "gamma", "delta"};
  int rows = static_cast<int>(rng->NextInt(5, 60));
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> row;
    // ~10% nulls in the metric column.
    row.push_back(rng->NextBool(0.1)
                      ? Value::Null()
                      : Value(rng->NextInt(-20, 100)));
    for (int c = 0; c < num_cat_cols; ++c) {
      row.push_back(rng->NextBool(0.05)
                        ? Value::Null()
                        : Value(std::string(kCats[rng->NextBounded(4)])));
    }
    // Foreign key into the dimension table; id 9 dangles (no match).
    row.push_back(Value(rng->NextInt(1, 9)));
    (void)t.AddRow(std::move(row));
  }
  (void)database.AddTable(std::move(t));

  // Dimension table with ids 1..8; joins are N:1 with dangling rows.
  Table dim("dim");
  (void)dim.AddColumn("id", ValueType::kLong);
  (void)dim.AddColumn("group_name", ValueType::kString);
  const char* kGroups[] = {"red", "green", "blue"};
  for (int64_t id = 1; id <= 8; ++id) {
    (void)dim.AddRow({Value(id),
                      Value(std::string(kGroups[rng->NextBounded(3)]))});
  }
  (void)database.AddTable(std::move(dim));
  (void)database.AddForeignKey({"data", "dim_id"}, {"dim", "id"});
  return database;
}

SimpleAggregateQuery MakeRandomQuery(Rng* rng) {
  const char* kCats[] = {"alpha", "beta", "gamma", "delta", "unseen"};
  const char* kGroups[] = {"red", "green", "blue", "unseen"};
  SimpleAggregateQuery q;
  q.fn = AllAggFns()[rng->NextBounded(kNumAggFns)];
  if (RequiresNumericColumn(q.fn)) {
    q.agg_column = {"data", "metric"};
  } else if (q.fn == AggFn::kCountDistinct) {
    q.agg_column = rng->NextBool(0.5) ? ColumnRef{"data", "metric"}
                                      : ColumnRef{"data", "cat0"};
  } else {
    switch (rng->NextBounded(3)) {
      case 0:
        q.agg_column = {"data", ""};
        break;
      case 1:
        q.agg_column = {"data", "cat1"};
        break;
      default:
        // Star over the dimension table: joins must not leak rows into it.
        q.agg_column = {"dim", ""};
        break;
    }
  }
  int num_preds = static_cast<int>(rng->NextBounded(3));
  if (q.fn == AggFn::kConditionalProbability && num_preds == 0) num_preds = 1;
  for (int p = 0; p < num_preds; ++p) {
    // Predicates on either side of the PK-FK edge, exercising joins.
    if (rng->NextBool(0.3)) {
      q.predicates.push_back(
          {{"dim", "group_name"},
           Value(std::string(kGroups[rng->NextBounded(4)]))});
    } else {
      std::string col = rng->NextBool(0.5) ? "cat0" : "cat1";
      q.predicates.push_back(
          {{"data", col}, Value(std::string(kCats[rng->NextBounded(5)]))});
    }
  }
  return q;
}

class StrategyEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrategyEquivalenceTest, AllStrategiesAgree) {
  Rng rng(GetParam());
  Database database = MakeRandomDatabase(&rng);
  std::vector<SimpleAggregateQuery> batch;
  int batch_size = static_cast<int>(rng.NextInt(1, 25));
  for (int i = 0; i < batch_size; ++i) batch.push_back(MakeRandomQuery(&rng));

  EvalEngine naive(&database, EvalStrategy::kNaive);
  EvalEngine merged(&database, EvalStrategy::kMerged);
  EvalEngine cached(&database, EvalStrategy::kMergedCached);

  auto r_naive = naive.EvaluateBatch(batch);
  auto r_merged = merged.EvaluateBatch(batch);
  auto r_cached = cached.EvaluateBatch(batch);
  // Run the cached engine twice: the second pass must serve from cache and
  // still agree.
  auto r_cached2 = cached.EvaluateBatch(batch);

  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(batch[i].ToSql());
    ASSERT_EQ(r_naive[i].has_value(), r_merged[i].has_value());
    ASSERT_EQ(r_naive[i].has_value(), r_cached[i].has_value());
    ASSERT_EQ(r_naive[i].has_value(), r_cached2[i].has_value());
    if (r_naive[i].has_value()) {
      EXPECT_NEAR(*r_naive[i], *r_merged[i], 1e-9);
      EXPECT_NEAR(*r_naive[i], *r_cached[i], 1e-9);
      EXPECT_NEAR(*r_naive[i], *r_cached2[i], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomizedSeeds, StrategyEquivalenceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{41}));

}  // namespace
}  // namespace db
}  // namespace aggchecker
