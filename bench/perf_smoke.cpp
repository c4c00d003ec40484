// Perf smoke gate (scripts/check.sh --perf-smoke), three checks:
//
//  1. Cube backend: the vectorized pipeline must beat the scalar oracle on
//     the headline workload — a d=2 multi-aggregate cube at num_threads=1 —
//     and must agree with it bit-for-bit. Catches a silent de-vectorization
//     before the full micro-bench refresh runs.
//  2. Engine: merged+cached evaluation over a PK-FK join workload must be
//     >= 5x the naive cache-off path (the shared RelationCache plus query
//     merging must actually pay), with bit-identical results; and with >= 2
//     hardware threads, 2-thread merged evaluation must not be slower than
//     1-thread (the morsel scheduler must not regress the scaling curve —
//     skipped on single-core machines where there is nothing to scale to).
//  3. Plan reuse: a multi-iteration EM run must serve repeated cube groups
//     from the plan cache (plan_cache_hits > 0), a second Check on the same
//     instance must build zero new plans (each distinct plan is built at
//     most once per engine lifetime), and the run must report
//     bit-identically to a scalar-cube-oracle reference run.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/aggchecker.h"
#include "corpus/generator.h"
#include "db/cube.h"
#include "db/database.h"
#include "db/eval_engine.h"
#include "db/relation_cache.h"
#include "util/thread_pool.h"

namespace aggchecker {
namespace {

constexpr size_t kRows = 40000;
constexpr int kReps = 5;

db::Database MakeDatabase() {
  db::Database database("perf-smoke");
  db::Table fact("fact");
  (void)fact.AddColumn("d0", db::ValueType::kString);
  (void)fact.AddColumn("d1", db::ValueType::kString);
  (void)fact.AddColumn("m_long", db::ValueType::kLong);
  (void)fact.AddColumn("m_double", db::ValueType::kDouble);
  for (size_t r = 0; r < kRows; ++r) {
    std::vector<db::Value> row;
    for (int d = 0; d < 2; ++d) {
      size_t v = (r * 2654435761u + static_cast<size_t>(d) * 97) % 11;
      if (v == 10) {
        row.emplace_back();
      } else {
        row.emplace_back("v" + std::to_string(v % 5));
      }
    }
    if (r % 13 == 7) {
      row.emplace_back();
    } else {
      row.emplace_back(static_cast<int64_t>(r % 257));
    }
    if (r % 17 == 3) {
      row.emplace_back();
    } else {
      row.emplace_back(0.5 * static_cast<double>(r % 1001) - 250.0);
    }
    (void)fact.AddRow(std::move(row));
  }
  (void)database.AddTable(std::move(fact));
  return database;
}

struct Workload {
  std::vector<db::ColumnRef> dims;
  std::vector<std::vector<db::Value>> literals;
  std::vector<db::CubeAggregate> aggs;
};

Workload MakeWorkload(const db::Database& database) {
  Workload w;
  const db::Table& fact = *database.FindTable("fact");
  for (const char* name : {"d0", "d1"}) {
    const db::Column& col = *fact.FindColumn(name);
    w.dims.push_back({"fact", col.name()});
    w.literals.push_back(col.DistinctValues());
  }
  auto agg = [](db::AggFn fn, const char* column) {
    db::CubeAggregate a;
    a.fn = fn;
    if (column != nullptr) a.column = {"fact", column};
    return a;
  };
  w.aggs = {agg(db::AggFn::kCount, nullptr),
            agg(db::AggFn::kCountDistinct, "m_long"),
            agg(db::AggFn::kSum, "m_double"),
            agg(db::AggFn::kAvg, "m_double"),
            agg(db::AggFn::kMax, "m_double")};
  return w;
}

/// Best-of-kReps wall time for one mode; the materialized cube of the last
/// rep is returned through `out` for the equivalence check.
double TimeMode(const db::Database& database, const Workload& w,
                db::CubeExecMode mode,
                std::shared_ptr<db::CubeResult>* out) {
  db::CubeExecOptions options;
  options.mode = mode;
  double best = 1e100;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    auto cube = db::ExecuteCube(database, w.dims, w.literals, w.aggs,
                                nullptr, nullptr, options);
    auto elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (!cube.ok()) {
      std::fprintf(stderr, "perf_smoke: %s execution failed: %s\n",
                   db::CubeExecModeName(mode),
                   cube.status().ToString().c_str());
      std::exit(2);
    }
    *out = *cube;
    if (elapsed < best) best = elapsed;
  }
  return best;
}

bool BitEqual(const std::optional<double>& a,
              const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return std::memcmp(&*a, &*b, sizeof(double)) == 0;
}

/// Every enumerable cell must agree bit-for-bit between the two backends.
bool CubesIdentical(const db::CubeResult& lhs, const db::CubeResult& rhs) {
  if (lhs.num_cells() != rhs.num_cells()) return false;
  std::vector<std::vector<int16_t>> axis(lhs.dims().size());
  for (size_t d = 0; d < axis.size(); ++d) {
    axis[d] = {db::kAllBucket, db::kDefaultBucket};
    for (size_t i = 0; i < lhs.literals()[d].size(); ++i) {
      axis[d].push_back(static_cast<int16_t>(i));
    }
  }
  std::vector<size_t> pos(axis.size(), 0);
  std::vector<int16_t> key(axis.size(), 0);
  while (true) {
    for (size_t d = 0; d < axis.size(); ++d) key[d] = axis[d][pos[d]];
    for (size_t a = 0; a < lhs.aggregates().size(); ++a) {
      if (!BitEqual(lhs.Lookup(key, a), rhs.Lookup(key, a))) return false;
    }
    size_t d = 0;
    while (d < axis.size() && ++pos[d] == axis[d].size()) pos[d++] = 0;
    if (d == axis.size()) break;
  }
  return true;
}

/// Two-table PK-FK database for the engine gate: fact.dim_id -> dim.id,
/// so every query with a predicate on dim.label scans the joined relation
/// (which the naive cache-off path re-materializes per query).
db::Database MakeJoinDatabase() {
  db::Database database("perf-smoke-join");
  constexpr size_t kDimRows = 100;
  {
    db::Table dim("dim");
    (void)dim.AddColumn("id", db::ValueType::kLong);
    (void)dim.AddColumn("label", db::ValueType::kString);
    for (size_t i = 0; i < kDimRows; ++i) {
      (void)dim.AddRow({db::Value(static_cast<int64_t>(i)),
                        db::Value("l" + std::to_string(i % 8))});
    }
    (void)database.AddTable(std::move(dim));
  }
  {
    db::Table fact("fact");
    (void)fact.AddColumn("dim_id", db::ValueType::kLong);
    (void)fact.AddColumn("d0", db::ValueType::kString);
    (void)fact.AddColumn("m", db::ValueType::kDouble);
    for (size_t r = 0; r < kRows; ++r) {
      (void)fact.AddRow(
          {db::Value(static_cast<int64_t>((r * 2654435761u) % kDimRows)),
           db::Value("v" + std::to_string(r % 5)),
           db::Value(0.25 * static_cast<double>(r % 997) - 100.0)});
    }
    (void)database.AddTable(std::move(fact));
  }
  (void)database.AddForeignKey({"fact", "dim_id"}, {"dim", "id"});
  return database;
}

/// The engine-gate batch: every query joins fact with dim.
std::vector<db::SimpleAggregateQuery> MakeJoinBatch() {
  std::vector<db::SimpleAggregateQuery> batch;
  for (int l = 0; l < 8; ++l) {
    for (int v = 0; v < 3; ++v) {
      db::SimpleAggregateQuery q;
      q.fn = db::AggFn::kCount;
      q.agg_column = {"fact", ""};
      q.predicates.push_back(
          {{"dim", "label"}, db::Value("l" + std::to_string(l))});
      q.predicates.push_back(
          {{"fact", "d0"}, db::Value("v" + std::to_string(v))});
      batch.push_back(q);
      q.fn = db::AggFn::kSum;
      q.agg_column = {"fact", "m"};
      batch.push_back(q);
    }
  }
  return batch;
}

/// Best-of-kReps wall time of one engine configuration, cold-started per
/// rep (fresh engine + cleared relation cache). Results and stats of the
/// last rep are returned for the equivalence/counter checks.
double TimeEngine(const db::Database& database, db::EvalStrategy strategy,
                  bool relation_cache, size_t threads,
                  const std::vector<db::SimpleAggregateQuery>& batch,
                  std::vector<std::optional<double>>* results,
                  db::EvalStats* stats) {
  double best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    database.relation_cache().Clear();
    db::EvalEngine engine(&database, strategy);
    if (!relation_cache) engine.SetRelationCache(nullptr);
    ThreadPool pool(threads);
    if (threads > 1) engine.SetThreadPool(&pool);
    auto start = std::chrono::steady_clock::now();
    auto r = engine.EvaluateBatch(batch);
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (elapsed < best) best = elapsed;
    *results = std::move(r);
    *stats = engine.stats();
  }
  return best;
}

int RunEngineGate() {
  db::Database database = MakeJoinDatabase();
  const auto batch = MakeJoinBatch();

  std::vector<std::optional<double>> naive_results, merged_results;
  db::EvalStats naive_stats, merged_stats;
  double naive = TimeEngine(database, db::EvalStrategy::kNaive,
                            /*relation_cache=*/false, 1, batch,
                            &naive_results, &naive_stats);
  double merged = TimeEngine(database, db::EvalStrategy::kMergedCached,
                             /*relation_cache=*/true, 1, batch,
                             &merged_results, &merged_stats);
  double speedup = naive / merged;
  std::printf(
      "perf_smoke: naive(cache off)=%.3fms joins_built=%zu | "
      "merged+cached=%.3fms joins_built=%zu join_cache_hits=%zu | "
      "speedup=%.2fx (%zu queries, %zu-row fact x 100-row dim)\n",
      naive * 1e3, naive_stats.joins_built, merged * 1e3,
      merged_stats.joins_built, merged_stats.join_cache_hits, speedup,
      batch.size(), kRows);

  for (size_t i = 0; i < batch.size(); ++i) {
    if (!BitEqual(naive_results[i], merged_results[i])) {
      std::fprintf(stderr,
                   "perf_smoke: FAIL — naive and merged+cached disagree on "
                   "query %zu\n",
                   i);
      return 1;
    }
  }
  if (merged_stats.joins_built != 1) {
    std::fprintf(stderr,
                 "perf_smoke: FAIL — merged+cached materialized the join "
                 "%zu times (want exactly 1)\n",
                 merged_stats.joins_built);
    return 1;
  }
  if (speedup < 5.0) {
    std::fprintf(stderr,
                 "perf_smoke: FAIL — merged+cached is only %.2fx the naive "
                 "cache-off path (gate: >= 5x)\n",
                 speedup);
    return 1;
  }

  const bench::ThreadReport threads = bench::MakeThreadReport(2);
  if (threads.clamped) {
    std::printf(
        "perf_smoke: thread-scaling check skipped "
        "(hardware_concurrency=%zu < 2)\n",
        threads.hardware_concurrency);
    return 0;
  }
  // kMerged (no result cache) keeps every rep doing real cube work; the
  // 1.15x tolerance absorbs scheduler noise without letting a real
  // serialization regression (the old flat curve) through.
  std::vector<std::optional<double>> t1_results, t2_results;
  db::EvalStats t1_stats, t2_stats;
  double t1 = TimeEngine(database, db::EvalStrategy::kMerged, true, 1,
                         batch, &t1_results, &t1_stats);
  double t2 = TimeEngine(database, db::EvalStrategy::kMerged, true, 2,
                         batch, &t2_results, &t2_stats);
  std::printf("perf_smoke: merged 1-thread=%.3fms 2-thread=%.3fms\n",
              t1 * 1e3, t2 * 1e3);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!BitEqual(t1_results[i], t2_results[i])) {
      std::fprintf(stderr,
                   "perf_smoke: FAIL — thread counts disagree on query "
                   "%zu\n",
                   i);
      return 1;
    }
  }
  if (t2 > t1 * 1.15) {
    std::fprintf(stderr,
                 "perf_smoke: FAIL — 2-thread merged evaluation is slower "
                 "than 1-thread (%.3fms vs %.3fms)\n",
                 t2 * 1e3, t1 * 1e3);
    return 1;
  }
  return 0;
}

bool VerdictsBitIdentical(const core::CheckReport& a,
                          const core::CheckReport& b) {
  if (a.verdicts.size() != b.verdicts.size()) return false;
  for (size_t i = 0; i < a.verdicts.size(); ++i) {
    const auto& va = a.verdicts[i];
    const auto& vb = b.verdicts[i];
    if (va.likely_erroneous != vb.likely_erroneous) return false;
    if (std::memcmp(&va.correctness_probability,
                    &vb.correctness_probability, sizeof(double)) != 0) {
      return false;
    }
    if (va.top_queries.size() != vb.top_queries.size()) return false;
    for (size_t q = 0; q < va.top_queries.size(); ++q) {
      const auto& qa = va.top_queries[q];
      const auto& qb = vb.top_queries[q];
      if (!(qa.query == qb.query)) return false;
      if (!BitEqual(qa.result, qb.result)) return false;
      if (std::memcmp(&qa.probability, &qb.probability, sizeof(double)) !=
          0) {
        return false;
      }
    }
  }
  return true;
}

int RunPlanReuseGate() {
  // A generated corpus case: large enough candidate spaces that a tight
  // per-iteration budget forces the EM loop to evaluate candidates in
  // tranches across iterations — the steady state where later tranches
  // land in already-planned (relation, dim-set) groups. A budget that
  // swallowed the whole space in iteration one would leave nothing for the
  // plan cache to prove.
  corpus::GeneratorOptions gen;
  corpus::CorpusCase test_case = corpus::GenerateCase(3, gen);
  db::Database& database = test_case.database;
  core::CheckOptions options;
  options.model.max_em_iterations = 5;
  options.model.num_threads = 1;
  options.model.max_eval_per_claim = 40;
  options.model.min_eval_per_claim = 10;
  auto checker = core::AggChecker::Create(&database, options);
  if (!checker.ok()) {
    std::fprintf(stderr, "perf_smoke: FAIL — checker creation failed\n");
    return 1;
  }
  auto first = checker->Check(test_case.document);
  if (!first.ok() || first->verdicts.empty()) {
    std::fprintf(stderr, "perf_smoke: FAIL — checking run failed\n");
    return 1;
  }
  std::printf(
      "perf_smoke: em_iterations=%d plans_built=%zu plan_cache_hits=%zu "
      "(%zu claims)\n",
      first->em_iterations, first->eval_stats.plans_built,
      first->eval_stats.plan_cache_hits, first->verdicts.size());
  if (first->eval_stats.plans_built == 0 ||
      first->eval_stats.plan_cache_hits == 0) {
    std::fprintf(stderr,
                 "perf_smoke: FAIL — EM run did not exercise the plan "
                 "cache (built=%zu hits=%zu)\n",
                 first->eval_stats.plans_built,
                 first->eval_stats.plan_cache_hits);
    return 1;
  }

  // Same instance, same document: the engine (and its plan cache) persists
  // across Check calls, so the rerun must build zero new plans. EvalStats
  // are cumulative per engine, which is exactly what lets us assert this.
  auto second = checker->Check(test_case.document);
  if (!second.ok()) {
    std::fprintf(stderr, "perf_smoke: FAIL — second checking run failed\n");
    return 1;
  }
  if (second->eval_stats.plans_built != first->eval_stats.plans_built) {
    std::fprintf(stderr,
                 "perf_smoke: FAIL — rerun rebuilt plans (%zu -> %zu); "
                 "each plan must be built at most once\n",
                 first->eval_stats.plans_built,
                 second->eval_stats.plans_built);
    return 1;
  }
  if (second->eval_stats.plan_cache_hits <=
      first->eval_stats.plan_cache_hits) {
    std::fprintf(stderr,
                 "perf_smoke: FAIL — rerun did not hit the plan cache\n");
    return 1;
  }

  // Plan reuse is an optimization, never a behavior change: the scalar
  // cube oracle (the reference the recovery ladder falls back to) must
  // produce the same verdicts.
  core::CheckOptions reference = options;
  reference.cube_exec = db::CubeExecMode::kScalarOracle;
  auto ref_checker = core::AggChecker::Create(&database, reference);
  if (!ref_checker.ok()) {
    std::fprintf(stderr, "perf_smoke: FAIL — reference checker creation "
                         "failed\n");
    return 1;
  }
  auto ref_report = ref_checker->Check(test_case.document);
  if (!ref_report.ok() ||
      !VerdictsBitIdentical(*first, *ref_report)) {
    std::fprintf(stderr,
                 "perf_smoke: FAIL — vectorized and scalar-oracle runs "
                 "disagree on verdicts\n");
    return 1;
  }
  return 0;
}

int RunSmoke() {
  db::Database database = MakeDatabase();
  Workload workload = MakeWorkload(database);
  std::shared_ptr<db::CubeResult> scalar_cube, vectorized_cube;
  // Warm lazy column representations outside the timed region for both
  // modes alike (the engine pre-warms them in its plan phase too).
  double scalar = TimeMode(database, workload,
                           db::CubeExecMode::kScalarOracle, &scalar_cube);
  double vectorized = TimeMode(database, workload,
                               db::CubeExecMode::kVectorized,
                               &vectorized_cube);
  double speedup = scalar / vectorized;
  std::printf("perf_smoke: scalar=%.3fms vectorized=%.3fms speedup=%.2fx "
              "(d=2, 5 aggregates, %zu rows, 1 thread)\n",
              scalar * 1e3, vectorized * 1e3, speedup,
              kRows);
  if (!CubesIdentical(*scalar_cube, *vectorized_cube)) {
    std::fprintf(stderr,
                 "perf_smoke: FAIL — backends disagree on cube cells\n");
    return 1;
  }
  if (vectorized >= scalar) {
    std::fprintf(stderr,
                 "perf_smoke: FAIL — vectorized cube execution is not "
                 "faster than the scalar oracle (%.2fx)\n",
                 speedup);
    return 1;
  }
  int engine_gate = RunEngineGate();
  if (engine_gate != 0) return engine_gate;
  int plan_gate = RunPlanReuseGate();
  if (plan_gate != 0) return plan_gate;
  std::printf("perf_smoke: OK\n");
  return 0;
}

}  // namespace
}  // namespace aggchecker

int main() { return aggchecker::RunSmoke(); }
