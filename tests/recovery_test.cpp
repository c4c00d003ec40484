// Engine-level tests of the self-healing layer (DESIGN.md §13): same-rung
// retries for transient faults, the fallback ladder for persistent faults
// in optimized paths, quarantine when every rung fails, the fail-fast
// behavior with recovery disabled, and the governor-exhausted guard.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "db/eval_engine.h"
#include "db/relation_cache.h"
#include "test_fixtures.h"
#include "util/fault_injection.h"
#include "util/resource_governor.h"

namespace aggchecker {
namespace {

namespace fi = fault_injection;
using testing_fixtures::CountStar;

std::vector<db::SimpleAggregateQuery> NflQueries() {
  return {
      CountStar("nflsuspensions",
                {{{"nflsuspensions", "Games"}, db::Value("indef")}}),
      CountStar("nflsuspensions",
                {{{"nflsuspensions", "Category"}, db::Value("gambling")}}),
  };
}

// A persistent fault in the vectorized cube scan must descend to the
// reference rung (the scalar oracle is its bit-identical twin), heal every
// query, and restore the engine's configuration afterwards.
TEST(RecoveryTest, LadderHealsVectorizedCubeFault) {
  fi::DisarmAll();
  auto db = testing_fixtures::MakeNflDatabase();
  auto queries = NflQueries();
  db::EvalEngine reference(&db, db::EvalStrategy::kMergedCached);
  const auto expected = reference.EvaluateBatch(queries);
  ASSERT_TRUE(expected[0].has_value());

  db::EvalEngine engine(&db, db::EvalStrategy::kMergedCached);
  engine.SetRecovery(true);
  fi::Arm("cube.scan.vectorized");  // permanent kInternal, every hit
  const auto results = engine.EvaluateBatch(queries);
  fi::DisarmAll();

  EXPECT_EQ(results, expected) << "recovered values must be the true values";
  EXPECT_EQ(engine.stats().ladder_descents, 1u);
  EXPECT_EQ(engine.stats().queries_recovered, queries.size());
  EXPECT_EQ(engine.stats().queries_quarantined, 0u);
  EXPECT_EQ(engine.stats().recovery_retries, 0u)
      << "a permanent fault must not burn same-rung retries";
  EXPECT_TRUE(engine.ConsumeFailedQueries().empty());
  EXPECT_TRUE(engine.ConsumeHardError().ok())
      << "a fully healed batch must look fault-free to callers";
  const auto records = engine.ConsumeRecoveryRecords();
  ASSERT_EQ(records.size(), queries.size());
  for (const auto& rec : records) {
    EXPECT_TRUE(rec.recovered);
    EXPECT_EQ(rec.rung, 1u) << db::EvalEngine::RecoveryRungName(rec.rung);
    EXPECT_GT(rec.attempts, 1u);
  }
  // Configuration restored: the next batch runs the primary path again.
  EXPECT_EQ(engine.cube_exec_mode(), db::CubeExecMode::kVectorized);
  EXPECT_NE(engine.relation_cache(), nullptr);
}

// A transient fault that fires once heals by same-rung retry: no ladder
// rung is engaged, and the record lands on rung 0.
TEST(RecoveryTest, TransientFaultHealsOnPrimaryRung) {
  fi::DisarmAll();
  auto db = testing_fixtures::MakeNflDatabase();
  auto queries = NflQueries();
  db::EvalEngine reference(&db, db::EvalStrategy::kMergedCached);
  const auto expected = reference.EvaluateBatch(queries);

  db::EvalEngine engine(&db, db::EvalStrategy::kMergedCached);
  engine.SetRecovery(true);
  fi::FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.message = "momentary scan glitch";
  spec.every_hit = false;  // fires exactly once; the retry runs clean
  fi::Arm("cube.scan.vectorized", spec);
  const auto results = engine.EvaluateBatch(queries);
  fi::DisarmAll();

  EXPECT_EQ(results, expected);
  EXPECT_GE(engine.stats().recovery_retries, 1u);
  EXPECT_EQ(engine.stats().ladder_descents, 0u)
      << "a transient glitch must not descend the ladder";
  EXPECT_GT(engine.stats().queries_recovered, 0u);
  EXPECT_TRUE(engine.ConsumeHardError().ok());
  for (const auto& rec : engine.ConsumeRecoveryRecords()) {
    EXPECT_TRUE(rec.recovered);
    EXPECT_EQ(rec.rung, 0u) << "healed on the primary configuration";
  }
}

// The reference rung also detaches the relation cache: a fault in the
// shared cache's acquire path is shed on that same single rung, because
// every query there rebuilds its join privately.
TEST(RecoveryTest, LadderReachesFreshJoinRung) {
  fi::DisarmAll();
  auto db = testing_fixtures::MakeOrdersDatabase();
  db.relation_cache().Clear();
  std::vector<db::SimpleAggregateQuery> queries = {CountStar(
      "orders", {{{"customers", "region"}, db::Value(std::string("east"))}})};
  db::EvalEngine reference(&db, db::EvalStrategy::kMergedCached);
  const auto expected = reference.EvaluateBatch(queries);
  ASSERT_TRUE(expected[0].has_value());
  EXPECT_DOUBLE_EQ(*expected[0], 3.0);
  db.relation_cache().Clear();

  db::EvalEngine engine(&db, db::EvalStrategy::kMergedCached);
  engine.SetRecovery(true);
  fi::Arm("relation.cache.acquire");
  const auto results = engine.EvaluateBatch(queries);
  fi::DisarmAll();

  EXPECT_EQ(results, expected);
  EXPECT_EQ(engine.stats().queries_recovered, 1u);
  for (const auto& rec : engine.ConsumeRecoveryRecords()) {
    EXPECT_TRUE(rec.recovered);
    EXPECT_EQ(rec.rung, 1u) << db::EvalEngine::RecoveryRungName(rec.rung);
    EXPECT_STREQ(db::EvalEngine::RecoveryRungName(rec.rung), "reference");
  }
  EXPECT_EQ(engine.stats().ladder_descents, 1u);
  EXPECT_NE(engine.relation_cache(), nullptr) << "configuration restored";
  EXPECT_EQ(engine.cube_exec_mode(), db::CubeExecMode::kVectorized);
}

// Raw engines keep the pre-recovery contract: hard errors surface unmasked,
// nothing is retried, failed queries are reported to the caller.
TEST(RecoveryTest, RecoveryDisabledSurfacesHardError) {
  fi::DisarmAll();
  auto db = testing_fixtures::MakeNflDatabase();
  auto queries = NflQueries();
  db::EvalEngine engine(&db, db::EvalStrategy::kMergedCached);
  ASSERT_FALSE(engine.recovery_enabled()) << "raw engines default to OFF";
  fi::Arm("cube.scan.vectorized");
  const auto results = engine.EvaluateBatch(queries);
  fi::DisarmAll();

  for (const auto& r : results) EXPECT_FALSE(r.has_value());
  EXPECT_EQ(engine.stats().queries_recovered, 0u);
  EXPECT_EQ(engine.stats().ladder_descents, 0u);
  EXPECT_EQ(engine.stats().recovery_retries, 0u);
  EXPECT_EQ(engine.ConsumeFailedQueries().size(), queries.size());
  Status error = engine.ConsumeHardError();
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.code(), StatusCode::kInternal);
  EXPECT_TRUE(engine.ConsumeRecoveryRecords().empty());
}

// A poison query that fails on every rung is quarantined alone: its batch
// mates keep their values, the caller learns exactly which index died, and
// the primary hard error is re-raised for attribution.
TEST(RecoveryTest, PoisonQueryQuarantinedAloneOthersSucceed) {
  fi::DisarmAll();
  auto db = testing_fixtures::MakeNflDatabase();
  auto queries = NflQueries();
  db::EvalEngine engine(&db, db::EvalStrategy::kNaive);
  engine.SetRecovery(true);
  // Naive execution scans once per query in index order: hit 1 is query 0
  // (passes), every hit from 2 on — including every recovery re-run — is
  // query 1 failing on each rung.
  fi::FaultSpec spec;
  spec.trigger_on_hit = 2;
  fi::Arm("executor.scan", spec);
  const auto results = engine.EvaluateBatch(queries);
  fi::DisarmAll();

  ASSERT_TRUE(results[0].has_value()) << "healthy neighbor lost its value";
  EXPECT_DOUBLE_EQ(*results[0], 4.0);
  EXPECT_FALSE(results[1].has_value());
  EXPECT_EQ(engine.stats().queries_quarantined, 1u);
  EXPECT_EQ(engine.stats().queries_recovered, 0u);
  const auto failed = engine.ConsumeFailedQueries();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], 1u);
  const auto records = engine.ConsumeRecoveryRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].recovered);
  EXPECT_EQ(records[0].query_index, 1u);
  EXPECT_GT(records[0].attempts, 1u) << "the ladder must actually be tried";
  Status error = engine.ConsumeHardError();
  ASSERT_FALSE(error.ok()) << "quarantine must re-raise the primary error";
  EXPECT_EQ(error.code(), StatusCode::kInternal);
}

// Once the governor has tripped, recovery stands down: re-runs would fail
// their first charge, so surviving failures surrender immediately with no
// retries, no descents, and no extra budget burned.
TEST(RecoveryTest, GovernorExhaustedSkipsRecovery) {
  fi::DisarmAll();
  auto db = testing_fixtures::MakeOrdersDatabase();
  db.relation_cache().Clear();
  // Query 0 (single-table, charges no memory) hard-faults at the scan
  // point; query 1's join materialization blows the 1-byte memory budget
  // (memory is inspected immediately, unlike amortized row charges), so
  // the governor is exhausted by the time the batch folds.
  std::vector<db::SimpleAggregateQuery> queries = {
      CountStar("orders",
                {{{"orders", "customer_id"}, db::Value(int64_t{1})}}),
      CountStar("orders",
                {{{"customers", "region"}, db::Value("east")}}),
  };
  db::EvalEngine engine(&db, db::EvalStrategy::kNaive);
  engine.SetRecovery(true);
  GovernorLimits limits;
  limits.max_memory_bytes = 1;
  ResourceGovernor governor(limits);
  engine.SetGovernor(&governor);
  fi::FaultSpec spec;
  spec.every_hit = false;  // hit 1 is query 0; query 1 dies in the governor
  fi::Arm("executor.scan", spec);
  const auto results = engine.EvaluateBatch(queries);
  fi::DisarmAll();
  engine.SetGovernor(nullptr);

  ASSERT_TRUE(governor.exhausted());
  EXPECT_FALSE(results[0].has_value());
  EXPECT_FALSE(results[1].has_value());
  EXPECT_EQ(engine.stats().recovery_retries, 0u);
  EXPECT_EQ(engine.stats().ladder_descents, 0u);
  EXPECT_EQ(engine.stats().queries_recovered, 0u);
  const auto failed = engine.ConsumeFailedQueries();
  ASSERT_EQ(failed.size(), 1u) << "the hard fault still surfaces";
  EXPECT_EQ(failed[0], 0u);
  EXPECT_FALSE(engine.ConsumeHardError().ok());
  EXPECT_TRUE(engine.ConsumeRecoveryRecords().empty())
      << "surrender-without-recovery must not fabricate recovery records";
}

// Recovery leaves no residue: after a healed batch, a fault-free batch on
// the same engine produces reference results and no new recovery activity.
TEST(RecoveryTest, CleanBatchAfterRecoveryIsUntouched) {
  fi::DisarmAll();
  auto db = testing_fixtures::MakeNflDatabase();
  auto queries = NflQueries();
  db::EvalEngine reference(&db, db::EvalStrategy::kMergedCached);
  const auto expected = reference.EvaluateBatch(queries);

  db::EvalEngine engine(&db, db::EvalStrategy::kMergedCached);
  engine.SetRecovery(true);
  fi::Arm("cube.scan.vectorized");
  (void)engine.EvaluateBatch(queries);
  fi::DisarmAll();
  (void)engine.ConsumeRecoveryRecords();
  const size_t descents = engine.stats().ladder_descents;

  const auto clean = engine.EvaluateBatch(queries);
  EXPECT_EQ(clean, expected);
  EXPECT_EQ(engine.stats().ladder_descents, descents)
      << "a clean batch must not enter recovery";
  EXPECT_TRUE(engine.ConsumeRecoveryRecords().empty());
  EXPECT_TRUE(engine.ConsumeFailedQueries().empty());
  EXPECT_TRUE(engine.ConsumeHardError().ok());
}

}  // namespace
}  // namespace aggchecker
