// Reproduces Table 6: run time for fact-checking all test cases under the
// three evaluation strategies — naive per-candidate execution, merged cube
// queries, and cubes plus the cross-claim/cross-iteration result cache —
// plus a thread-count sweep over the best strategy. Results are written to
// BENCH_table6.json for cross-run tracking.

#include <algorithm>

#include "bench_common.h"
#include "corpus/embedded_articles.h"
#include "util/thread_pool.h"

int main() {
  using namespace aggchecker;
  bench::Header("Table 6: processing strategies",
                "naive 2587s/2415s query -> merging x61.9 -> caching x2.1 "
                "(accumulated x129.9)");

  // The paper's data sets reach ~100 MB and its pipeline evaluates tens of
  // thousands of candidates per article; the default corpus/scope is kept
  // small so the accuracy benchmarks stay fast. Scale rows and evaluation
  // scope here so scan cost dominates — the regime Table 6 measures.
  corpus::GeneratorOptions gen;
  gen.num_cases = 50;
  gen.row_scale = 20;
  std::vector<corpus::CorpusCase> scaled = corpus::EmbeddedArticles();
  for (auto& c : corpus::GenerateCorpus(gen)) scaled.push_back(std::move(c));
  std::printf("corpus: %zu cases, %zu total rows (row_scale=%zu)\n",
              scaled.size(),
              [&] {
                size_t rows = 0;
                for (const auto& c : scaled) rows += c.database.TotalRows();
                return rows;
              }(),
              gen.row_scale);

  struct RowResult {
    const char* label;
    db::EvalStrategy strategy;
    const char* paper;
    double total = 0, query = 0, join = 0;
    size_t joins_built = 0, join_cache_hits = 0;
    size_t recovery_retries = 0, ladder_descents = 0;
    size_t claims_recovered = 0, claims_quarantined = 0;
  };
  RowResult rows[] = {
      {"Naive", db::EvalStrategy::kNaive, "paper 2587s total / 2415s query"},
      {"+ Query Merging", db::EvalStrategy::kMerged, "paper 151s / 39s"},
      {"+ Caching", db::EvalStrategy::kMergedCached, "paper 128s / 18s"},
  };
  for (auto& row : rows) {
    core::CheckOptions options;
    options.strategy = row.strategy;
    options.model.max_eval_per_claim = 800;
    options.model.lucene_hits = 30;
    options.model.num_threads = 1;  // serial baseline; sweep below
    auto result = corpus::RunOnCorpus(scaled, options);
    row.total = result.total_seconds;
    row.query = result.query_seconds;
    row.join = result.join_seconds;
    row.joins_built = result.joins_built;
    row.join_cache_hits = result.join_cache_hits;
    row.recovery_retries = result.recovery_retries;
    row.ladder_descents = result.ladder_descents;
    row.claims_recovered = result.claims_recovered;
    row.claims_quarantined = result.claims_quarantined;
    std::printf("%-18s total=%7.2fs  query=%7.2fs  cubes=%zu  "
                "cache_hits=%zu  joins=%zu (hits %zu)   %s\n",
                row.label, row.total, row.query, result.cube_queries,
                result.cache_hits, result.joins_built,
                result.join_cache_hits, row.paper);
    std::printf("%-18s recovery: retries=%zu descents=%zu recovered=%zu "
                "quarantined=%zu\n",
                "", row.recovery_retries, row.ladder_descents,
                row.claims_recovered, row.claims_quarantined);
  }
  std::printf("\nquery-time speedups: merging x%.1f, caching x%.1f, "
              "accumulated x%.1f (paper: x61.9, x2.1, x129.9)\n",
              rows[0].query / rows[1].query, rows[1].query / rows[2].query,
              rows[0].query / rows[2].query);

  // Thread-count sweep over the best strategy (cube jobs are split into
  // (job, row-block) morsels drained by the worker pool; results are
  // bit-identical for any thread count). The sweep is clamped to the
  // machine's hardware concurrency (bench_common.h).
  const size_t hw = ThreadPool::HardwareConcurrency();
  std::vector<size_t> thread_counts = bench::ClampedThreadSweep({1, 2, 4});
  std::printf("\nthread sweep (+ Caching strategy, identical results; "
              "hardware_concurrency=%zu):\n",
              hw);
  struct SweepResult {
    size_t threads;
    double total = 0, query = 0;
    double plan = 0, execute = 0, fold = 0, answer = 0;
    size_t plans_built = 0, plan_cache_hits = 0;
  };
  std::vector<SweepResult> sweep;
  for (size_t threads : thread_counts) {
    core::CheckOptions options;
    options.strategy = db::EvalStrategy::kMergedCached;
    options.model.max_eval_per_claim = 800;
    options.model.lucene_hits = 30;
    options.model.num_threads = threads;
    auto result = corpus::RunOnCorpus(scaled, options);
    sweep.push_back({threads, result.total_seconds, result.query_seconds,
                     result.plan_seconds, result.execute_seconds,
                     result.fold_seconds, result.answer_seconds,
                     result.plans_built, result.plan_cache_hits});
    std::printf(
        "  threads=%zu  total=%7.2fs  query=%7.2fs  speedup=x%.2f  "
        "[plan=%.2fs execute=%.2fs fold=%.2fs answer=%.2fs]  "
        "plans=%zu (hits %zu)\n",
        threads, result.total_seconds, result.query_seconds,
        sweep[0].query / result.query_seconds, result.plan_seconds,
        result.execute_seconds, result.fold_seconds, result.answer_seconds,
        result.plans_built, result.plan_cache_hits);
  }

  // Machine-readable tracking (compared across commits by eye/scripts).
  if (FILE* out = std::fopen("BENCH_table6.json", "w")) {
    std::fprintf(out, "{\n  \"strategies\": [\n");
    for (size_t i = 0; i < 3; ++i) {
      std::fprintf(out,
                   "    {\"label\": \"%s\", \"total_seconds\": %.4f, "
                   "\"query_seconds\": %.4f, \"join_seconds\": %.4f, "
                   "\"joins_built\": %zu, \"join_cache_hits\": %zu, "
                   "\"recovery\": {\"retries\": %zu, \"ladder_descents\": "
                   "%zu, \"claims_recovered\": %zu, \"claims_quarantined\": "
                   "%zu}}%s\n",
                   rows[i].label, rows[i].total, rows[i].query, rows[i].join,
                   rows[i].joins_built, rows[i].join_cache_hits,
                   rows[i].recovery_retries, rows[i].ladder_descents,
                   rows[i].claims_recovered, rows[i].claims_quarantined,
                   i + 1 < 3 ? "," : "");
    }
    std::fprintf(out, "  ],\n  ");
    // The sweep requests up to 4 threads; the report records what the
    // host actually allowed (uniform keys across all bench JSON files).
    bench::WriteThreadReportJson(out, bench::MakeThreadReport(4));
    std::fprintf(out, ",\n  \"thread_sweep\": [\n");
    for (size_t i = 0; i < sweep.size(); ++i) {
      std::fprintf(out,
                   "    {\"threads\": %zu, \"total_seconds\": %.4f, "
                   "\"query_seconds\": %.4f, \"speedup\": %.4f, "
                   "\"phases\": {\"plan\": %.4f, \"execute\": %.4f, "
                   "\"fold\": %.4f, \"answer\": %.4f}, "
                   "\"plans_built\": %zu, \"plan_cache_hits\": %zu}%s\n",
                   sweep[i].threads, sweep[i].total, sweep[i].query,
                   sweep[0].query / sweep[i].query, sweep[i].plan,
                   sweep[i].execute, sweep[i].fold, sweep[i].answer,
                   sweep[i].plans_built, sweep[i].plan_cache_hits,
                   i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("\nwrote BENCH_table6.json\n");
  }
  return 0;
}
