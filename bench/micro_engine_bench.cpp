// Micro-benchmarks of the query-evaluation backend (google-benchmark):
// naive scans vs merged cube execution vs cached lookups — the mechanisms
// behind Table 6 — plus join materialization and threaded twins of the
// batch benchmarks. Track across commits with
//   micro_engine_bench --benchmark_out_format=json
//                      --benchmark_out=BENCH_micro_engine.json

#include <benchmark/benchmark.h>

#include <cinttypes>

#include "corpus/generator.h"
#include "db/eval_engine.h"
#include "db/joined_relation.h"
#include "db/query_interner.h"
#include "util/resource_governor.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace aggchecker {
namespace {

/// A representative candidate batch: all (function, literal) combinations
/// on one case's focus columns — what one EM iteration evaluates.
std::vector<db::SimpleAggregateQuery> MakeBatch(const db::Database& db) {
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
  return batch;
}

const db::Database& BenchDatabase() {
  static const corpus::CorpusCase* kCase = [] {
    corpus::GeneratorOptions options;
    return new corpus::CorpusCase(corpus::GenerateCase(3, options));
  }();
  return kCase->database;
}

void BM_NaiveBatch(benchmark::State& state) {
  const auto& db = BenchDatabase();
  auto batch = MakeBatch(db);
  for (auto _ : state) {
    db::EvalEngine engine(&db, db::EvalStrategy::kNaive);
    benchmark::DoNotOptimize(engine.EvaluateBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_NaiveBatch);

void BM_MergedBatch(benchmark::State& state) {
  const auto& db = BenchDatabase();
  auto batch = MakeBatch(db);
  for (auto _ : state) {
    db::EvalEngine engine(&db, db::EvalStrategy::kMerged);
    benchmark::DoNotOptimize(engine.EvaluateBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_MergedBatch);

// Governed variants: identical work under an attached (unlimited) resource
// governor. Comparing these against the ungoverned twins measures the
// cooperative-cancellation overhead, which must stay within the noise
// (<= 2%): scan loops charge the governor once per
// ResourceGovernor::kCheckIntervalRows rows, not per row.
void BM_NaiveBatchGoverned(benchmark::State& state) {
  const auto& db = BenchDatabase();
  auto batch = MakeBatch(db);
  ResourceGovernor governor;
  for (auto _ : state) {
    db::EvalEngine engine(&db, db::EvalStrategy::kNaive);
    engine.SetGovernor(&governor);
    benchmark::DoNotOptimize(engine.EvaluateBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_NaiveBatchGoverned);

void BM_MergedBatchGoverned(benchmark::State& state) {
  const auto& db = BenchDatabase();
  auto batch = MakeBatch(db);
  ResourceGovernor governor;
  for (auto _ : state) {
    db::EvalEngine engine(&db, db::EvalStrategy::kMerged);
    engine.SetGovernor(&governor);
    benchmark::DoNotOptimize(engine.EvaluateBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_MergedBatchGoverned);

// Threaded twins: the same batches with a worker pool attached, swept over
// thread counts (->Arg(n)). Results are bit-identical to the serial twins
// (asserted by parallel_determinism_test); these twins track the speedup —
// and, at 1 thread vs the pool-free baseline, the coordination overhead.
// On a single-core host the sweep degenerates to overhead measurement.
void BM_NaiveBatchParallel(benchmark::State& state) {
  const auto& db = BenchDatabase();
  auto batch = MakeBatch(db);
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    db::EvalEngine engine(&db, db::EvalStrategy::kNaive);
    engine.SetThreadPool(&pool);
    benchmark::DoNotOptimize(engine.EvaluateBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_NaiveBatchParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_MergedBatchParallel(benchmark::State& state) {
  const auto& db = BenchDatabase();
  auto batch = MakeBatch(db);
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    db::EvalEngine engine(&db, db::EvalStrategy::kMerged);
    engine.SetThreadPool(&pool);
    benchmark::DoNotOptimize(engine.EvaluateBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_MergedBatchParallel)->Arg(1)->Arg(2)->Arg(4);

// Parallel + governed: cube workers charge per-thread governor shards that
// fold into the shared atomics every kCheckIntervalRows rows. The delta
// against BM_MergedBatchParallel is the sharded-accounting overhead.
void BM_MergedBatchParallelGoverned(benchmark::State& state) {
  const auto& db = BenchDatabase();
  auto batch = MakeBatch(db);
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  ResourceGovernor governor;
  for (auto _ : state) {
    db::EvalEngine engine(&db, db::EvalStrategy::kMerged);
    engine.SetThreadPool(&pool);
    engine.SetGovernor(&governor);
    benchmark::DoNotOptimize(engine.EvaluateBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_MergedBatchParallelGoverned)->Arg(1)->Arg(2)->Arg(4);

void BM_CachedRepeatBatch(benchmark::State& state) {
  const auto& db = BenchDatabase();
  auto batch = MakeBatch(db);
  db::EvalEngine engine(&db, db::EvalStrategy::kMergedCached);
  (void)engine.EvaluateBatch(batch);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.EvaluateBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_CachedRepeatBatch);

// --- Plan-phase micro bench: interned fingerprints ----------------------
//
// Steady-state EM iterations re-plan near-identical candidate batches
// every round; this bench isolates that plan phase. The result cache is
// warmed once so the execute phase collapses to cache hits, leaving the
// per-query planning work. The batch ships pre-encoded interner ids — as
// the translator does after its first iteration — and hits the
// (relation, dim-set) plan cache, so per-query work shrinks to integer
// lookups. Swept over batch size.
const db::Database& PlanBenchDatabase() {
  static const db::Database* kDb = [] {
    auto* db = new db::Database("plan-bench");
    db::Table table("plan");
    (void)table.AddColumn("a", db::ValueType::kString);
    (void)table.AddColumn("b", db::ValueType::kString);
    for (size_t r = 0; r < 1000; ++r) {
      (void)table.AddRow({db::Value(strings::Format("a%zu", r % 250)),
                          db::Value(strings::Format("b%zu", r % 200))});
    }
    (void)db->AddTable(std::move(table));
    return db;
  }();
  return *kDb;
}

/// `n` distinct COUNT(*) candidates over (a, b) literal pairs; all share
/// one dimension set, so they merge into a single cube whose result the
/// warm-up run caches.
std::vector<db::SimpleAggregateQuery> MakePlanBatch(int64_t n) {
  std::vector<db::SimpleAggregateQuery> batch;
  batch.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    db::SimpleAggregateQuery q;
    q.fn = db::AggFn::kCount;
    q.agg_column = {"plan", ""};
    q.predicates = {
        {{"plan", "a"},
         db::Value(strings::Format("a%" PRId64, (i / 200) % 250))},
        {{"plan", "b"}, db::Value(strings::Format("b%" PRId64, i % 200))}};
    batch.push_back(std::move(q));
  }
  return batch;
}

void BM_PlanPhaseFingerprint(benchmark::State& state) {
  const auto& db = PlanBenchDatabase();
  auto batch = MakePlanBatch(state.range(0));
  db::EvalEngine engine(&db, db::EvalStrategy::kMergedCached);
  std::vector<db::QueryInterner::Id> ids;
  ids.reserve(batch.size());
  for (const auto& q : batch) {
    ids.push_back(engine.interner().InternQuery(q));
  }
  (void)engine.EvaluateInterned(ids);  // warm the result + plan caches
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.EvaluateInterned(ids));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlanPhaseFingerprint)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_CubeExecution(benchmark::State& state) {
  const auto& db = BenchDatabase();
  const db::Table& table = db.table(0);
  std::vector<db::ColumnRef> dims;
  std::vector<std::vector<db::Value>> literals;
  for (size_t c = 0; c < table.num_columns() && dims.size() < 2; ++c) {
    const db::Column& column = table.column(c);
    if (column.is_numeric()) continue;
    dims.push_back({table.name(), column.name()});
    literals.push_back(column.DistinctValues());
  }
  db::CubeAggregate count_star;
  count_star.column.table = table.name();
  for (auto _ : state) {
    auto cube = db::ExecuteCube(db, dims, literals, {count_star});
    benchmark::DoNotOptimize(cube);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.num_rows()));
}
BENCHMARK(BM_CubeExecution);

// --- Cube-kernel micro benches: scalar oracle vs vectorized pipeline ----
//
// A synthetic star-schema fact table large enough that per-row dispatch
// cost dominates: four low-cardinality dimension columns (with NULLs), two
// measure columns (long + double, with NULLs) and a near-unique key. Swept
// over dimension count d=1..4 and each base aggregate function; the
// Scalar/Vectorized twins share workloads so their ratio is the speedup of
// the typed-kernel pipeline over the row-at-a-time Aggregator path (both
// at num_threads=1; results are bit-identical, asserted by
// cube_vectorized_diff_test).
constexpr size_t kKernelRows = 40000;

const db::Database& CubeKernelDatabase() {
  static const db::Database* kDb = [] {
    auto* db = new db::Database("cube-kernel-bench");
    db::Table fact("fact");
    for (int d = 0; d < 4; ++d) {
      (void)fact.AddColumn(strings::Format("d%d", d), db::ValueType::kString);
    }
    (void)fact.AddColumn("m_long", db::ValueType::kLong);
    (void)fact.AddColumn("m_double", db::ValueType::kDouble);
    (void)fact.AddColumn("key", db::ValueType::kLong);
    for (size_t r = 0; r < kKernelRows; ++r) {
      std::vector<db::Value> row;
      for (int d = 0; d < 4; ++d) {
        // Cardinality 5 per dimension, ~10% NULLs.
        size_t v = (r * 2654435761u + static_cast<size_t>(d) * 97) % 11;
        if (v == 10) {
          row.emplace_back();
        } else {
          row.emplace_back(strings::Format("v%zu", v % 5));
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
      // Near-unique: every 50th row repeats its predecessor's key.
      row.emplace_back(static_cast<int64_t>(r % 50 == 49 ? r - 1 : r));
      (void)fact.AddRow(std::move(row));
    }
    (void)db->AddTable(std::move(fact));
    return db;
  }();
  return *kDb;
}

struct CubeKernelWorkload {
  std::vector<db::ColumnRef> dims;
  std::vector<std::vector<db::Value>> literals;
  std::vector<db::CubeAggregate> aggs;
};

CubeKernelWorkload MakeKernelWorkload(int64_t fn_index, int64_t num_dims) {
  const db::Database& database = CubeKernelDatabase();
  const db::Table& fact = *database.FindTable("fact");
  CubeKernelWorkload workload;
  for (int64_t d = 0; d < num_dims; ++d) {
    const db::Column& col =
        *fact.FindColumn(strings::Format("d%" PRId64, d));
    workload.dims.push_back({"fact", col.name()});
    workload.literals.push_back(col.DistinctValues());
  }
  // fn_index: 0=Count(*), 1=CountDistinct, 2=Sum, 3=Avg, 4=Min, 5=Max;
  // 6 = the multi-aggregate workload (all five functions at once) that the
  // perf-smoke gate and BENCH_micro_engine.json headline track; 7 =
  // CountDistinct over the near-unique key, Table 6's shape (about one
  // distinct value per row, where fn 1 has 257 over the whole table).
  auto agg = [](db::AggFn fn, const char* column) {
    db::CubeAggregate a;
    a.fn = fn;
    if (column != nullptr) a.column = {"fact", column};
    return a;
  };
  switch (fn_index) {
    case 0:
      workload.aggs = {agg(db::AggFn::kCount, nullptr)};
      break;
    case 1:
      workload.aggs = {agg(db::AggFn::kCountDistinct, "m_long")};
      break;
    case 2:
      workload.aggs = {agg(db::AggFn::kSum, "m_double")};
      break;
    case 3:
      workload.aggs = {agg(db::AggFn::kAvg, "m_double")};
      break;
    case 4:
      workload.aggs = {agg(db::AggFn::kMin, "m_double")};
      break;
    case 5:
      workload.aggs = {agg(db::AggFn::kMax, "m_double")};
      break;
    case 7:
      workload.aggs = {agg(db::AggFn::kCountDistinct, "key")};
      break;
    default:
      workload.aggs = {agg(db::AggFn::kCount, nullptr),
                       agg(db::AggFn::kCountDistinct, "m_long"),
                       agg(db::AggFn::kSum, "m_double"),
                       agg(db::AggFn::kAvg, "m_double"),
                       agg(db::AggFn::kMax, "m_double")};
      break;
  }
  return workload;
}

void RunCubeKernelBench(benchmark::State& state, db::CubeExecMode mode) {
  const db::Database& database = CubeKernelDatabase();
  CubeKernelWorkload workload =
      MakeKernelWorkload(state.range(0), state.range(1));
  db::CubeExecOptions options;
  options.mode = mode;
  for (auto _ : state) {
    auto cube =
        db::ExecuteCube(database, workload.dims, workload.literals,
                        workload.aggs, nullptr, nullptr, options);
    benchmark::DoNotOptimize(cube);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kKernelRows));
}

void BM_CubeKernelScalar(benchmark::State& state) {
  RunCubeKernelBench(state, db::CubeExecMode::kScalarOracle);
}
void BM_CubeKernelVectorized(benchmark::State& state) {
  RunCubeKernelBench(state, db::CubeExecMode::kVectorized);
}

// Per-function sweep at d=2, plus the dimension sweeps d=1..4 on the
// multi-aggregate workload (fn index 6) and the near-unique COUNT DISTINCT
// (fn index 7). ArgNames render in the JSON as fn:<index>/d:<dims>.
void RegisterCubeKernelArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"fn", "d"});
  for (int64_t fn = 0; fn <= 5; ++fn) bench->Args({fn, 2});
  for (int64_t fn : {6, 7}) {
    for (int64_t d = 1; d <= 4; ++d) bench->Args({fn, d});
  }
  bench->Unit(benchmark::kMicrosecond);
}
BENCHMARK(BM_CubeKernelScalar)->Apply(RegisterCubeKernelArgs);
BENCHMARK(BM_CubeKernelVectorized)->Apply(RegisterCubeKernelArgs);

void BM_JoinMaterialization(benchmark::State& state) {
  // Two-table PK-FK join at corpus-like sizes.
  static const db::Database* kDb = [] {
    auto* db = new db::Database("join-bench");
    db::Table left("orders");
    (void)left.AddColumn("id", db::ValueType::kLong);
    (void)left.AddColumn("customer_id", db::ValueType::kLong);
    db::Table right("customers");
    (void)right.AddColumn("id", db::ValueType::kLong);
    (void)right.AddColumn("region", db::ValueType::kString);
    for (int64_t i = 0; i < 200; ++i) {
      (void)right.AddRow({db::Value(i), db::Value(std::string(
                                            i % 2 ? "east" : "west"))});
    }
    for (int64_t i = 0; i < 5000; ++i) {
      (void)left.AddRow({db::Value(i), db::Value(i % 200)});
    }
    (void)db->AddTable(std::move(left));
    (void)db->AddTable(std::move(right));
    (void)db->AddForeignKey({"orders", "customer_id"}, {"customers", "id"});
    return db;
  }();
  for (auto _ : state) {
    auto rel = db::JoinedRelation::Build(*kDb, {"orders", "customers"});
    benchmark::DoNotOptimize(rel);
  }
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_JoinMaterialization);

}  // namespace
}  // namespace aggchecker

BENCHMARK_MAIN();
