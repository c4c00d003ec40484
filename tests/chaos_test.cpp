// Chaos and fuzz-lite tests: the full checking pipeline must degrade into
// documented Status codes — never crash, hang, or return garbage — when
// faults are injected at registered fault points or when resource budgets
// are starved. See DESIGN.md "Failure-handling contract".

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/aggchecker.h"
#include "core/interactive_session.h"
#include "corpus/generator.h"
#include "db/relation_cache.h"
#include "db/table.h"
#include "test_fixtures.h"
#include "text/document.h"
#include "util/csv.h"
#include "util/fault_injection.h"

namespace aggchecker {
namespace {

namespace fi = fault_injection;

constexpr const char* kArticle = R"(
<h1>The NFL's Uneven History Of Punishing Domestic Violence</h1>
<h2>Lifetime bans</h2>
<p>There were only four previous lifetime bans in my database. Three were
for repeated substance abuse offenses, one was for gambling.</p>
)";

/// Runs the whole pipeline from raw CSV text to a report, routing every
/// failure into the returned Status (no step may crash under injection).
/// When `report_out` is non-null, a successful run's report is copied out so
/// callers can inspect recovery/quarantine state.
Status RunPipeline(core::CheckOptions options = {},
                   core::CheckReport* report_out = nullptr) {
  auto data = csv::Parse(testing_fixtures::kNflCsv);
  if (!data.ok()) return data.status();
  auto table = db::Table::FromCsv("nflsuspensions", *data);
  if (!table.ok()) return table.status();
  db::Database database("nfl");
  Status added = database.AddTable(std::move(*table));
  if (!added.ok()) return added;
  auto checker = core::AggChecker::Create(&database, options);
  if (!checker.ok()) return checker.status();
  auto doc = text::ParseDocument(kArticle);
  if (!doc.ok()) return doc.status();
  auto report = checker->Check(*doc);
  if (!report.ok()) return report.status();
  // Sanity: a successful run must have produced verdicts.
  if (report->verdicts.empty()) return Status::Internal("no verdicts");
  if (report_out != nullptr) *report_out = std::move(*report);
  return Status::OK();
}

/// The closed vocabulary a chaos run may surface: success, the injected
/// default (kInternal), or a governor stop that leaked past degradation
/// (never expected, but part of the documented Status surface).
bool IsDocumentedOutcome(const Status& status) {
  return status.ok() || status.code() == StatusCode::kInternal ||
         status.code() == StatusCode::kParseError ||
         status.IsResourceExhausted();
}

core::CheckOptions NaiveOptions() {
  core::CheckOptions options;
  options.strategy = db::EvalStrategy::kNaive;
  return options;
}

TEST(ChaosTest, CleanRunRegistersFaultPoints) {
  fi::DisarmAll();
  // Merged-cube and naive strategies together cover all evaluation paths.
  ASSERT_TRUE(RunPipeline().ok());
  ASSERT_TRUE(RunPipeline(NaiveOptions()).ok());
  std::vector<std::string> points = fi::RegisteredPoints();
  // Every layer of the pipeline exposes at least one point.
  for (const char* expected :
       {"catalog.build", "check.run", "csv.row", "cube.materialize",
        "em.iterate", "executor.execute"}) {
    EXPECT_NE(std::find(points.begin(), points.end(), expected),
              points.end())
        << "fault point not registered: " << expected;
  }
}

/// True when a report carries any trace of the self-healing layer acting on
/// a fault: a healed or quarantined claim, or raw engine recovery counters.
bool RecoveryVisible(const core::CheckReport& report) {
  return report.NumRecovered() + report.NumQuarantined() > 0 ||
         report.eval_stats.queries_recovered +
                 report.eval_stats.queries_quarantined >
             0 ||
         report.run_attempts > 1;
}

TEST(ChaosTest, EveryFaultPointOneAtATime) {
  fi::DisarmAll();
  // Populate the registry across both evaluation strategies.
  ASSERT_TRUE(RunPipeline().ok());
  ASSERT_TRUE(RunPipeline(NaiveOptions()).ok());
  std::vector<std::string> points = fi::RegisteredPoints();
  ASSERT_FALSE(points.empty());
  for (const std::string& point : points) {
    fi::Arm(point);
    core::CheckReport merged_report;
    core::CheckReport naive_report;
    Status merged_status = RunPipeline({}, &merged_report);
    Status naive_status = RunPipeline(NaiveOptions(), &naive_report);
    EXPECT_TRUE(IsDocumentedOutcome(merged_status))
        << point << " surfaced undocumented status: "
        << merged_status.ToString();
    EXPECT_TRUE(IsDocumentedOutcome(naive_status))
        << point << " surfaced undocumented status: "
        << naive_status.ToString();
    // Registered points sit on an executed path of one of the two
    // strategies, so arming one must reach it (join.materialize only runs
    // for multi-table databases, so it may be registered but unhit here).
    // With recovery ON (the default), an evaluation-layer fault no longer
    // fails the run — but it must leave a trace: either a pipeline failed
    // (fault outside the recovery layer's reach) or its report shows the
    // fault was healed or quarantined.
    if (point != "join.materialize") {
      EXPECT_GT(fi::HitCount(point), 0u) << point << " was never hit";
      const bool merged_visible =
          !merged_status.ok() || RecoveryVisible(merged_report);
      const bool naive_visible =
          !naive_status.ok() || RecoveryVisible(naive_report);
      EXPECT_TRUE(merged_visible || naive_visible)
          << point << " fired but left no failure or recovery trace";
    }
    fi::DisarmAll();
  }
}

// The fail-fast contract survives behind the recovery switch: with
// `recovery.enabled = false`, quarantine still keeps per-query faults from
// aborting the run (failed queries have owners), but nothing is retried and
// nothing heals — every armed evaluation fault must surface as a failure or
// a quarantined claim, never as a silent success.
TEST(ChaosTest, RecoveryDisabledNeverHealsSilently) {
  fi::DisarmAll();
  ASSERT_TRUE(RunPipeline().ok());
  ASSERT_TRUE(RunPipeline(NaiveOptions()).ok());
  std::vector<std::string> points = fi::RegisteredPoints();
  ASSERT_FALSE(points.empty());
  for (const std::string& point : points) {
    if (point == "join.materialize") continue;  // unhit on one-table runs
    fi::Arm(point);
    core::CheckOptions merged_options;
    merged_options.recovery.enabled = false;
    core::CheckOptions naive_options = NaiveOptions();
    naive_options.recovery.enabled = false;
    core::CheckReport merged_report;
    core::CheckReport naive_report;
    Status merged_status = RunPipeline(merged_options, &merged_report);
    Status naive_status = RunPipeline(naive_options, &naive_report);
    EXPECT_TRUE(IsDocumentedOutcome(merged_status)) << point;
    EXPECT_TRUE(IsDocumentedOutcome(naive_status)) << point;
    EXPECT_EQ(merged_report.NumRecovered() + merged_report.eval_stats
                  .queries_recovered, 0u)
        << point << " healed with recovery disabled";
    EXPECT_EQ(naive_report.NumRecovered() +
                  naive_report.eval_stats.queries_recovered,
              0u)
        << point << " healed with recovery disabled";
    EXPECT_TRUE(!merged_status.ok() || !naive_status.ok() ||
                merged_report.NumQuarantined() +
                        naive_report.NumQuarantined() >
                    0)
        << point << " fired but both fail-fast pipelines looked clean";
    fi::DisarmAll();
  }
}

TEST(ChaosTest, NthHitInjectionFiresDeterministically) {
  fi::DisarmAll();
  ASSERT_TRUE(RunPipeline().ok());
  // em.iterate runs once per EM iteration: tripping hit 2 exercises the
  // mid-loop abort path rather than the first-entry path.
  fi::FaultSpec spec;
  spec.trigger_on_hit = 2;
  fi::Arm("em.iterate", spec);
  Status status = RunPipeline();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_GE(fi::HitCount("em.iterate"), 2u);
  fi::DisarmAll();
}

TEST(ChaosTest, InjectedStatusCodePropagatesVerbatim) {
  fi::DisarmAll();
  ASSERT_TRUE(RunPipeline().ok());
  fi::FaultSpec spec;
  spec.code = StatusCode::kParseError;
  spec.message = "simulated corrupt row";
  fi::Arm("csv.row", spec);
  Status status = RunPipeline();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("simulated corrupt row"),
            std::string::npos);
  fi::DisarmAll();
}

TEST(ChaosTest, RecoversAfterDisarm) {
  fi::DisarmAll();
  fi::Arm("check.run");
  EXPECT_FALSE(RunPipeline().ok());
  fi::DisarmAll();
  // Nothing sticky: the next clean run works and caches stay coherent.
  EXPECT_TRUE(RunPipeline().ok());
  EXPECT_TRUE(RunPipeline().ok());
}

// Fuzz-lite: seeded random documents/schemas from the corpus generator,
// pushed through Check while faults fire at varying depths. Deterministic
// in the seeds; any crash or undocumented Status fails the test.
TEST(ChaosTest, FuzzLiteSeededCorpusUnderFaults) {
  fi::DisarmAll();
  corpus::GeneratorOptions options;
  options.num_cases = 4;
  const std::vector<std::string> points = {
      "executor.execute", "cube.materialize", "em.iterate", "check.run"};
  for (uint64_t seed : {7u, 1234u, 99991u}) {
    options.seed = seed;
    for (size_t c = 0; c < options.num_cases; ++c) {
      corpus::CorpusCase test_case = corpus::GenerateCase(c, options);
      for (size_t p = 0; p < points.size(); ++p) {
        fi::FaultSpec spec;
        spec.trigger_on_hit = 1 + (c + p) % 3;  // vary the injection depth
        fi::Arm(points[p], spec);
        auto checker = core::AggChecker::Create(&test_case.database);
        Status status = checker.ok() ? Status::OK() : checker.status();
        if (checker.ok()) {
          auto report = checker->Check(test_case.document);
          if (!report.ok()) status = report.status();
        }
        EXPECT_TRUE(IsDocumentedOutcome(status))
            << "seed " << seed << " case " << c << " point " << points[p]
            << ": " << status.ToString();
        fi::DisarmAll();
      }
    }
  }
}

// Fuzz-lite for graceful degradation: starved budgets across seeded cases
// must complete without error, mark claims partial instead of erroneous,
// and leave unbounded reruns bit-identical to a fresh unbounded run.
TEST(ChaosTest, FuzzLiteStarvedBudgetsDegradeGracefully) {
  fi::DisarmAll();
  corpus::GeneratorOptions options;
  options.num_cases = 4;
  options.seed = 4242;
  for (size_t c = 0; c < options.num_cases; ++c) {
    corpus::CorpusCase test_case = corpus::GenerateCase(c, options);
    for (uint64_t budget : {uint64_t{1}, uint64_t{5000}, uint64_t{100000}}) {
      core::CheckOptions check_options;
      check_options.governor.max_row_scans = budget;
      auto checker =
          core::AggChecker::Create(&test_case.database, check_options);
      ASSERT_TRUE(checker.ok());
      auto report = checker->Check(test_case.document);
      ASSERT_TRUE(report.ok())
          << "case " << c << " budget " << budget << ": "
          << report.status().ToString();
      for (const auto& verdict : report->verdicts) {
        if (verdict.partial) {
          EXPECT_FALSE(verdict.likely_erroneous)
              << "partial claim flagged erroneous (case " << c
              << ", budget " << budget << ")";
        }
      }
      if (report->governor_usage.exhausted) {
        EXPECT_EQ(report->governor_usage.stop_code,
                  StatusCode::kBudgetExhausted);
      }
    }
  }
}

// Same degradation contract for the modeled-memory budget: cube group and
// combo state, join indexes, and naive-scan state all charge bytes, and a
// starved byte budget must produce partial verdicts — never an error, a
// crash, or a spuriously flagged claim. Both cube backends are covered.
TEST(ChaosTest, FuzzLiteStarvedMemoryBudgetsDegradeGracefully) {
  fi::DisarmAll();
  corpus::GeneratorOptions options;
  options.num_cases = 3;
  options.seed = 20260807;
  for (size_t c = 0; c < options.num_cases; ++c) {
    corpus::CorpusCase test_case = corpus::GenerateCase(c, options);
    for (uint64_t budget :
         {uint64_t{1}, uint64_t{4096}, uint64_t{1} << 20}) {
      for (db::CubeExecMode mode :
           {db::CubeExecMode::kVectorized, db::CubeExecMode::kScalarOracle}) {
        core::CheckOptions check_options;
        check_options.governor.max_memory_bytes = budget;
        check_options.cube_exec = mode;
        auto checker =
            core::AggChecker::Create(&test_case.database, check_options);
        ASSERT_TRUE(checker.ok());
        auto report = checker->Check(test_case.document);
        ASSERT_TRUE(report.ok())
            << "case " << c << " budget " << budget << " mode "
            << db::CubeExecModeName(mode) << ": "
            << report.status().ToString();
        for (const auto& verdict : report->verdicts) {
          if (verdict.partial) {
            EXPECT_FALSE(verdict.likely_erroneous)
                << "partial claim flagged erroneous (case " << c
                << ", memory budget " << budget << ")";
          }
        }
        if (report->governor_usage.exhausted) {
          EXPECT_EQ(report->governor_usage.stop_code,
                    StatusCode::kBudgetExhausted);
          EXPECT_GE(report->governor_usage.memory_bytes_charged, budget);
        }
      }
    }
  }
}

// A governor memory trip against a *warm* relation cache: the cached join's
// per-run charge must trip the starved run (single-charge accounting — the
// bytes are modeled state this run cannot afford, built or cached), the
// entry must be withdrawn so the cache never holds unaccounted state, and a
// fresh unbudgeted run must rebuild and verify cleanly.
TEST(ChaosTest, WarmRelationCacheSurvivesMemoryTrips) {
  fi::DisarmAll();
  auto database = testing_fixtures::MakeOrdersDatabase();
  database.relation_cache().Clear();
  db::SimpleAggregateQuery joined = testing_fixtures::CountStar(
      "orders", {{{"customers", "region"}, db::Value(std::string("east"))}});
  auto direct = db::JoinedRelation::Build(database, {"orders", "customers"});
  ASSERT_TRUE(direct.ok());
  const uint64_t join_bytes = direct->ApproxBytes();

  // Warm run (naive keeps the accounting exact: the join's bytes are the
  // only memory charge, paid exactly once despite three evaluations).
  {
    db::EvalEngine engine(&database, db::EvalStrategy::kNaive);
    ResourceGovernor governor;
    engine.SetGovernor(&governor);
    auto results = engine.EvaluateBatch({joined, joined, joined});
    ASSERT_TRUE(results[0].has_value());
    EXPECT_DOUBLE_EQ(*results[0], 3.0);
    EXPECT_EQ(engine.stats().joins_built, 1u);
    EXPECT_EQ(engine.stats().join_cache_hits, 2u);
    EXPECT_EQ(governor.usage().memory_bytes_charged, join_bytes);
  }
  EXPECT_EQ(database.relation_cache().size(), 1u);

  // Starved run against the warm cache: the cached join re-charges under
  // the new run id, trips the budget, and is withdrawn.
  {
    GovernorLimits tiny;
    tiny.max_memory_bytes = 1;
    db::EvalEngine engine(&database, db::EvalStrategy::kNaive);
    ResourceGovernor governor(tiny);
    engine.SetGovernor(&governor);
    auto results = engine.EvaluateBatch({joined});
    EXPECT_FALSE(results[0].has_value());
    EXPECT_EQ(engine.stats().queries_aborted, 1u);
    EXPECT_TRUE(engine.ConsumeHardError().ok());  // a stop, not an error
    EXPECT_TRUE(governor.exhausted());
    EXPECT_EQ(governor.usage().stop_code, StatusCode::kBudgetExhausted);
  }
  EXPECT_EQ(database.relation_cache().size(), 0u);

  // Fresh unbudgeted run: rebuilds the withdrawn join and verifies as if
  // the trip never happened.
  {
    db::EvalEngine engine(&database, db::EvalStrategy::kNaive);
    ResourceGovernor governor;
    engine.SetGovernor(&governor);
    auto results = engine.EvaluateBatch({joined});
    ASSERT_TRUE(results[0].has_value());
    EXPECT_DOUBLE_EQ(*results[0], 3.0);
    EXPECT_EQ(engine.stats().joins_built, 1u);
    EXPECT_EQ(governor.usage().memory_bytes_charged, join_bytes);
  }
  EXPECT_EQ(database.relation_cache().size(), 1u);
}

// Starved memory budgets through the full pipeline with the relation cache
// left warm between budget levels (no per-run Clear, unlike the harness):
// degradation must stay graceful and a final unbudgeted rerun bit-clean.
TEST(ChaosTest, FuzzLiteStarvedMemoryBudgetsWithWarmRelationCache) {
  fi::DisarmAll();
  corpus::GeneratorOptions options;
  options.num_cases = 2;
  options.seed = 20260808;
  for (size_t c = 0; c < options.num_cases; ++c) {
    corpus::CorpusCase test_case = corpus::GenerateCase(c, options);
    for (uint64_t budget : {uint64_t{1}, uint64_t{1} << 14, uint64_t{0}}) {
      core::CheckOptions check_options;
      check_options.governor.max_memory_bytes = budget;
      auto checker =
          core::AggChecker::Create(&test_case.database, check_options);
      ASSERT_TRUE(checker.ok());
      auto report = checker->Check(test_case.document);
      ASSERT_TRUE(report.ok())
          << "case " << c << " budget " << budget << ": "
          << report.status().ToString();
      for (const auto& verdict : report->verdicts) {
        if (verdict.partial) {
          EXPECT_FALSE(verdict.likely_erroneous)
              << "partial claim flagged erroneous (case " << c
              << ", memory budget " << budget << ")";
        }
      }
      if (budget == 0) {
        // Unlimited rerun after the starved ones: nothing partial, and the
        // cache (possibly emptied by withdrawals) rebuilt what it needed.
        EXPECT_EQ(report->NumPartial(), 0u);
        EXPECT_FALSE(report->governor_usage.exhausted);
      }
    }
  }
}

}  // namespace
}  // namespace aggchecker
