// Parallel determinism: the checking pipeline must produce bit-identical
// CheckReports (verdicts, top queries, probabilities, governor usage
// totals) for any num_threads, and chaos/starvation scenarios must keep
// surfacing only documented Status codes when workers are involved.
// See DESIGN.md "Concurrency contract".

#include <gtest/gtest.h>

#include <atomic>
#include <cinttypes>
#include <string>
#include <thread>
#include <vector>

#include "core/aggchecker.h"
#include "corpus/embedded_articles.h"
#include "corpus/generator.h"
#include "db/eval_engine.h"
#include "util/fault_injection.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace aggchecker {
namespace {

namespace fi = fault_injection;

/// Exact (hexfloat) rendering so two doubles compare bit-identical.
std::string Bits(double v) { return strings::Format("%a", v); }
std::string Bits(const std::optional<double>& v) {
  return v.has_value() ? Bits(*v) : "none";
}

/// Canonical rendering of everything in a CheckReport that the determinism
/// contract covers. Excluded on purpose: wall-clock fields (total_seconds,
/// query_seconds) and GovernorUsage::checkpoints — the inspection *count*
/// depends on how charges interleave across threads (documented), while the
/// charge totals do not.
std::string Fingerprint(const core::CheckReport& report) {
  std::string out;
  out += strings::Format("em=%d cand=%zu evaluated=%zu\n",
                         report.em_iterations, report.total_candidates,
                         report.queries_evaluated);
  out += strings::Format(
      "stats: answered=%zu cubes=%zu hits=%zu misses=%zu rows=%zu "
      "aborted=%zu\n",
      report.eval_stats.queries_answered, report.eval_stats.cube_queries,
      report.eval_stats.cache_hits, report.eval_stats.cache_misses,
      report.eval_stats.rows_scanned, report.eval_stats.queries_aborted);
  out += strings::Format(
      "governor: rows=%" PRIu64 " groups=%" PRIu64 " mem=%" PRIu64
      " exhausted=%d code=%d\n",
      report.governor_usage.rows_charged,
      report.governor_usage.cube_groups_charged,
      report.governor_usage.memory_bytes_charged,
      report.governor_usage.exhausted ? 1 : 0,
      static_cast<int>(report.governor_usage.stop_code));
  for (const auto& v : report.verdicts) {
    out += strings::Format(
        "claim %s value=%s candidates=%zu correct=%s err=%d partial=%d\n",
        v.claim.id.c_str(), Bits(v.claim.claimed_value()).c_str(),
        v.total_candidates, Bits(v.correctness_probability).c_str(),
        v.likely_erroneous ? 1 : 0, v.partial ? 1 : 0);
    for (const auto& q : v.top_queries) {
      out += strings::Format(
          "  p=%s result=%s match=%d kw=%s prior=%s sql=%s\n",
          Bits(q.probability).c_str(), Bits(q.result).c_str(),
          q.matches ? 1 : 0, Bits(q.keyword_score).c_str(),
          Bits(q.prior).c_str(), q.query.ToSql().c_str());
    }
  }
  return out;
}

core::CheckOptions ThreadedOptions(size_t num_threads) {
  core::CheckOptions options;
  options.model.num_threads = num_threads;
  return options;
}

std::string RunCase(const corpus::CorpusCase& test_case,
                    core::CheckOptions options) {
  auto checker = core::AggChecker::Create(&test_case.database, options);
  EXPECT_TRUE(checker.ok()) << checker.status().ToString();
  if (!checker.ok()) return "create-failed";
  auto report = checker->Check(test_case.document);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return "check-failed";
  return Fingerprint(*report);
}

// The acceptance bar: the full embedded corpus produces identical reports
// at 1, 2, and 8 threads, on both cube strategies and the naive executor.
TEST(ParallelDeterminismTest, EmbeddedCorpusIdenticalAcrossThreadCounts) {
  fi::DisarmAll();
  auto corpus = corpus::EmbeddedArticles();
  ASSERT_FALSE(corpus.empty());
  for (db::EvalStrategy strategy :
       {db::EvalStrategy::kMergedCached, db::EvalStrategy::kNaive}) {
    for (const auto& test_case : corpus) {
      core::CheckOptions serial = ThreadedOptions(1);
      serial.strategy = strategy;
      std::string baseline = RunCase(test_case, serial);
      ASSERT_NE(baseline, "check-failed");
      EXPECT_NE(baseline.find("claim "), std::string::npos)
          << "baseline produced no verdicts for " << test_case.name;
      for (size_t threads : {size_t{2}, size_t{8}}) {
        core::CheckOptions threaded = ThreadedOptions(threads);
        threaded.strategy = strategy;
        EXPECT_EQ(RunCase(test_case, threaded), baseline)
            << test_case.name << " with " << threads << " threads, strategy "
            << db::EvalStrategyName(strategy);
      }
    }
  }
}

// Generated cases vary schemas/joins beyond the embedded articles; also
// pins that governor *totals* (not just verdicts) are thread-invariant
// when no limit trips.
TEST(ParallelDeterminismTest, GeneratedCasesIdenticalAcrossThreadCounts) {
  fi::DisarmAll();
  corpus::GeneratorOptions options;
  options.num_cases = 4;
  options.seed = 20260807;
  for (size_t c = 0; c < options.num_cases; ++c) {
    corpus::CorpusCase test_case = corpus::GenerateCase(c, options);
    std::string baseline = RunCase(test_case, ThreadedOptions(1));
    EXPECT_NE(baseline.find("governor: rows="), std::string::npos);
    for (size_t threads : {size_t{2}, size_t{8}}) {
      EXPECT_EQ(RunCase(test_case, ThreadedOptions(threads)), baseline)
          << "case " << c << " with " << threads << " threads";
    }
  }
}

// The cube backends are interchangeable: the vectorized pipeline and the
// row-at-a-time scalar oracle produce bit-identical reports — including
// governor charge totals (both modes charge the same canonical modeled
// constants) — at any thread count.
TEST(ParallelDeterminismTest, CubeExecModesProduceIdenticalReports) {
  fi::DisarmAll();
  corpus::GeneratorOptions options;
  options.num_cases = 3;
  options.seed = 808;
  for (size_t c = 0; c < options.num_cases; ++c) {
    corpus::CorpusCase test_case = corpus::GenerateCase(c, options);
    core::CheckOptions oracle = ThreadedOptions(1);
    oracle.cube_exec = db::CubeExecMode::kScalarOracle;
    std::string baseline = RunCase(test_case, oracle);
    ASSERT_NE(baseline, "check-failed");
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      core::CheckOptions vectorized = ThreadedOptions(threads);
      vectorized.cube_exec = db::CubeExecMode::kVectorized;
      EXPECT_EQ(RunCase(test_case, vectorized), baseline)
          << "case " << c << " vectorized with " << threads << " threads";
    }
  }
}

// Engine-level determinism: the merged/cached strategies must keep their
// exact cache hit/miss/cube counters (asserted elsewhere for the serial
// path) when a pool is attached, including across batches.
TEST(ParallelDeterminismTest, EngineStatsIdenticalWithPool) {
  corpus::GeneratorOptions options;
  options.seed = 7;
  corpus::CorpusCase test_case = corpus::GenerateCase(2, options);
  const db::Database& db = test_case.database;
  std::vector<db::SimpleAggregateQuery> batch;
  const db::Table& table = db.table(0);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const db::Column& column = table.column(c);
    if (column.is_numeric()) continue;
    for (const db::Value& v : column.DistinctValues()) {
      db::SimpleAggregateQuery q;
      q.fn = db::AggFn::kCount;
      q.agg_column = {table.name(), ""};
      q.predicates = {{{table.name(), column.name()}, v}};
      batch.push_back(q);
    }
  }
  ASSERT_FALSE(batch.empty());

  for (db::EvalStrategy strategy :
       {db::EvalStrategy::kNaive, db::EvalStrategy::kMerged,
        db::EvalStrategy::kMergedCached}) {
    db::EvalEngine serial(&db, strategy);
    auto expected_first = serial.EvaluateBatch(batch);
    auto expected_second = serial.EvaluateBatch(batch);

    ThreadPool pool(8);
    db::EvalEngine threaded(&db, strategy);
    threaded.SetThreadPool(&pool);
    EXPECT_EQ(threaded.EvaluateBatch(batch), expected_first)
        << db::EvalStrategyName(strategy);
    EXPECT_EQ(threaded.EvaluateBatch(batch), expected_second)
        << db::EvalStrategyName(strategy);

    EXPECT_EQ(threaded.stats().cube_queries, serial.stats().cube_queries);
    EXPECT_EQ(threaded.stats().cache_hits, serial.stats().cache_hits);
    EXPECT_EQ(threaded.stats().cache_misses, serial.stats().cache_misses);
    EXPECT_EQ(threaded.stats().rows_scanned, serial.stats().rows_scanned);
    EXPECT_EQ(threaded.stats().queries_aborted, 0u);
  }
}

// Regression: NoteHardError fires from many workers at once (every query
// fails with an injected kInternal); the channel must surface exactly one
// error, keep it first-error-wins, and clear on consume — no torn Status,
// no lost error.
TEST(ParallelDeterminismTest, HardErrorChannelSafeUnderConcurrentWorkers) {
  fi::DisarmAll();
  corpus::GeneratorOptions options;
  options.seed = 7;
  corpus::CorpusCase test_case = corpus::GenerateCase(1, options);
  const db::Database& db = test_case.database;
  std::vector<db::SimpleAggregateQuery> batch;
  for (int i = 0; i < 64; ++i) {
    db::SimpleAggregateQuery q;
    q.fn = db::AggFn::kCount;
    q.agg_column = {db.table(0).name(), ""};
    batch.push_back(q);
  }

  for (const char* point : {"executor.execute", "cube.materialize"}) {
    const bool naive = std::string(point) == "executor.execute";
    ThreadPool pool(8);
    db::EvalEngine engine(
        &db, naive ? db::EvalStrategy::kNaive : db::EvalStrategy::kMerged);
    engine.SetThreadPool(&pool);

    fi::FaultSpec spec;
    spec.message = "concurrent boom";
    fi::Arm(point, spec);
    auto results = engine.EvaluateBatch(batch);
    fi::DisarmAll();

    for (const auto& r : results) EXPECT_FALSE(r.has_value());
    Status error = engine.ConsumeHardError();
    ASSERT_FALSE(error.ok()) << point;
    EXPECT_EQ(error.code(), StatusCode::kInternal);
    EXPECT_NE(error.message().find("concurrent boom"), std::string::npos);
    EXPECT_TRUE(engine.ConsumeHardError().ok()) << "channel must clear";
  }
}

// Chaos under threads: every documented fault point still degrades into a
// documented Status (no crash, no undocumented code) with workers active.
TEST(ParallelDeterminismTest, FaultPointsStillDocumentedWithThreads) {
  fi::DisarmAll();
  corpus::GeneratorOptions options;
  options.num_cases = 2;
  options.seed = 31337;
  const std::vector<std::string> points = {
      "executor.execute", "cube.materialize", "em.iterate", "check.run"};
  auto documented = [](const Status& status) {
    return status.ok() || status.code() == StatusCode::kInternal ||
           status.code() == StatusCode::kParseError ||
           status.IsResourceExhausted();
  };
  for (size_t c = 0; c < options.num_cases; ++c) {
    corpus::CorpusCase test_case = corpus::GenerateCase(c, options);
    for (size_t p = 0; p < points.size(); ++p) {
      for (db::EvalStrategy strategy :
           {db::EvalStrategy::kMergedCached, db::EvalStrategy::kNaive}) {
        fi::FaultSpec spec;
        spec.trigger_on_hit = 1 + (c + p) % 3;
        fi::Arm(points[p], spec);
        core::CheckOptions check_options = ThreadedOptions(8);
        check_options.strategy = strategy;
        auto checker =
            core::AggChecker::Create(&test_case.database, check_options);
        Status status = checker.ok() ? Status::OK() : checker.status();
        if (checker.ok()) {
          auto report = checker->Check(test_case.document);
          if (!report.ok()) status = report.status();
        }
        EXPECT_TRUE(documented(status))
            << "case " << c << " point " << points[p] << ": "
            << status.ToString();
        fi::DisarmAll();
      }
    }
  }
}

// Self-healing under concurrency (the TSan interplay regression): one
// thread's run trips its max_memory_bytes budget while another thread's
// fault domain is mid-backoff retrying a transient vectorized-scan fault.
// The two runs share only the global fault registry (mutex-guarded); the
// recovering run must heal without quarantine and produce verdicts
// bit-identical across 1, 2, and 8 worker threads, no matter how the
// starved neighbor's trip interleaves with the backoff sleeps.
TEST(ParallelDeterminismTest, MemoryTripDuringBackoffStaysDeterministic) {
  fi::DisarmAll();
  corpus::GeneratorOptions options;
  options.num_cases = 2;
  options.seed = 20260808;
  corpus::CorpusCase starved_case = corpus::GenerateCase(0, options);
  corpus::CorpusCase healing_case = corpus::GenerateCase(1, options);

  // Transient + every hit: the recovering run retries with backoff on the
  // primary rung (both retries re-fault), then heals on the reference
  // rung. trip_rate 1.0 keeps firing independent of how the two runs'
  // shared hit counter interleaves.
  fi::FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.message = "transient vectorized scan";
  fi::Arm("cube.scan.vectorized", spec);

  std::string baseline;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    std::atomic<bool> starved_ok{true};
    std::string starved_error;
    std::thread starved([&] {
      core::CheckOptions starved_options;
      starved_options.governor.max_memory_bytes = 1;  // trips immediately
      auto checker =
          core::AggChecker::Create(&starved_case.database, starved_options);
      if (!checker.ok()) {
        starved_ok = false;
        starved_error = checker.status().ToString();
        return;
      }
      auto report = checker->Check(starved_case.document);
      // Budget starvation degrades to partial verdicts; a documented
      // resource stop is the only acceptable failure.
      if (!report.ok() && !report.status().IsResourceExhausted()) {
        starved_ok = false;
        starved_error = report.status().ToString();
      }
    });

    core::CheckOptions healing_options = ThreadedOptions(threads);
    auto checker =
        core::AggChecker::Create(&healing_case.database, healing_options);
    ASSERT_TRUE(checker.ok());
    auto report = checker->Check(healing_case.document);
    starved.join();

    EXPECT_TRUE(starved_ok) << starved_error;
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->eval_stats.recovery_retries, 0u)
        << "the transient fault must put the fault domain into backoff";
    EXPECT_GT(report->eval_stats.queries_recovered, 0u);
    EXPECT_EQ(report->NumQuarantined(), 0u);
    std::string fingerprint = Fingerprint(*report);
    if (threads == 1) {
      baseline = fingerprint;
    } else {
      EXPECT_EQ(fingerprint, baseline)
          << threads << " threads diverged while a neighbor tripped memory";
    }
  }
  fi::DisarmAll();
}

// Starved budgets with workers: still no errors, partial-never-erroneous,
// the documented stop code, and no double-counted partial work
// (aborted <= answered; every partial verdict implies an exhausted run).
TEST(ParallelDeterminismTest, StarvedBudgetsDegradeGracefullyWithThreads) {
  fi::DisarmAll();
  corpus::GeneratorOptions options;
  options.num_cases = 3;
  options.seed = 4242;
  for (size_t c = 0; c < options.num_cases; ++c) {
    corpus::CorpusCase test_case = corpus::GenerateCase(c, options);
    for (uint64_t budget : {uint64_t{1}, uint64_t{5000}, uint64_t{100000}}) {
      core::CheckOptions check_options = ThreadedOptions(8);
      check_options.governor.max_row_scans = budget;
      // Pair each row budget with a memory budget in a different decade so
      // either limit may trip first; degradation must look the same.
      check_options.governor.max_memory_bytes = budget * 64;
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
              << "partial claim flagged erroneous (case " << c << ", budget "
              << budget << ")";
        }
      }
      EXPECT_LE(report->eval_stats.queries_aborted,
                report->eval_stats.queries_answered)
          << "aborted queries double-counted (case " << c << ", budget "
          << budget << ")";
      if (report->NumPartial() > 0) {
        EXPECT_TRUE(report->governor_usage.exhausted);
      }
      if (report->governor_usage.exhausted) {
        EXPECT_EQ(report->governor_usage.stop_code,
                  StatusCode::kBudgetExhausted);
      }
    }
  }
}

}  // namespace
}  // namespace aggchecker
