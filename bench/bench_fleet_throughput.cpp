// Fleet-scale throughput: generate a synthetic fleet workload (thousands of
// articles over shared scaled datasets), drain it through RunFleet under
// one global resource budget, and record
// verified-claims-per-second plus p99 per-document latency at several
// offered-load points into BENCH_fleet.json.
//
// `--smoke` runs the scripts/check.sh fleet-smoke gate instead: a ~50
// article fleet end to end, exiting nonzero unless throughput is nonzero,
// verdicts match the generator's ground truth exactly (zero erroneous
// verdicts), and the fleet run is bit-identical to the sequential reference.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/fleet_scheduler.h"
#include "corpus/fleet_generator.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace aggchecker;

struct LoadResult {
  size_t articles = 0;
  size_t claims = 0;
  uint64_t row_budget = 0;
  double total_seconds = 0;
  double throughput = 0;  ///< verified claims per second
  double p99_latency = 0;
  size_t verified = 0, partial = 0, failed = 0, exhausted = 0;
  uint64_t rows_charged = 0;
  size_t tp = 0, fp = 0, fn = 0, misaligned = 0;
};

double P99Latency(const core::FleetRunResult& run) {
  std::vector<double> latencies;
  latencies.reserve(run.documents.size());
  for (const auto& doc : run.documents) latencies.push_back(doc.latency_seconds);
  if (latencies.empty()) return 0;
  std::sort(latencies.begin(), latencies.end());
  size_t idx = (latencies.size() * 99 + 99) / 100;  // ceil(0.99 n)
  return latencies[std::min(idx, latencies.size()) - 1];
}

/// Scores the run's verdicts against the generator's by-construction ground
/// truth, by position (the fleet generator's alignment contract).
void ScoreDetection(const corpus::FleetCorpus& fleet,
                    const core::FleetRunResult& run, LoadResult* out) {
  for (const auto& doc : run.documents) {
    if (!doc.status.ok()) continue;
    const auto& truth = fleet.articles[doc.index].ground_truth;
    if (doc.report.verdicts.size() != truth.size()) ++out->misaligned;
    size_t n = std::min(doc.report.verdicts.size(), truth.size());
    for (size_t i = 0; i < n; ++i) {
      bool flagged = doc.report.verdicts[i].likely_erroneous;
      bool erroneous = truth[i].is_erroneous;
      if (flagged && erroneous) ++out->tp;
      if (flagged && !erroneous) ++out->fp;
      if (!flagged && erroneous) ++out->fn;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bench::Header(
      smoke ? "Fleet smoke: 50-article gate" : "Fleet throughput vs load",
      "fleet-scale extension (no paper analogue): verified-claims/s and p99 "
      "per-document latency under one global budget");

  // The spec trades dataset scale against CI wall time: ~12 dimension
  // columns at cardinality up to 24 keeps per-article candidate spaces in
  // the thousands while a 1000-article fleet still drains in minutes.
  // FleetSpec defaults go much larger (50k rows, 24 dims); this bench
  // measures the fleet drain, not raw scan throughput.
  corpus::FleetSpec spec;
  spec.seed = 42;
  spec.num_articles = smoke ? 50 : 1000;
  spec.num_datasets = smoke ? 2 : 8;
  spec.claims_per_article = 5;
  spec.num_dim_columns = 12;
  spec.num_measure_columns = 4;
  spec.rows_per_dataset = smoke ? 800 : 1500;
  spec.dim_cardinality = 24;
  spec.error_rate = 0.12;

  Timer gen_timer;
  corpus::FleetCorpus fleet = corpus::GenerateFleet(spec);
  const double generation_seconds = gen_timer.ElapsedSeconds();
  auto all_documents = corpus::FleetDocuments(fleet);
  std::printf("generated %zu articles / %zu claims over %zu datasets "
              "(%zu rows each) in %.2fs\n",
              fleet.articles.size(), fleet.TotalClaims(),
              fleet.datasets.size(), spec.rows_per_dataset,
              generation_seconds);

  // Worker breadth: request up to 4, use what the host has — and say so.
  // On a 1-core container the sweep collapses to threads=1; the clamp is
  // recorded in the JSON instead of silently measuring oversubscription.
  const bench::ThreadReport threads = bench::MakeThreadReport(4);
  const size_t threads_used = threads.threads_used;
  bench::PrintThreadReport(threads);

  std::vector<size_t> loads =
      smoke ? std::vector<size_t>{fleet.articles.size()}
            : std::vector<size_t>{100, 300, fleet.articles.size()};

  std::vector<LoadResult> results;
  for (size_t load : loads) {
    const size_t n = std::min(load, all_documents.size());
    std::vector<core::FleetDocument> documents(all_documents.begin(),
                                               all_documents.begin() + n);
    core::FleetOptions options;
    options.num_threads = threads_used;
    // One global budget over the whole fleet, sliced fairly per document
    // (generous: demonstrates governed operation without degrading the
    // smoke gate's accuracy — partial claims are never flagged erroneous
    // but do show up as recall misses).
    options.check.governor.max_row_scans =
        static_cast<uint64_t>(n) * 20'000'000ull;

    core::FleetRunResult run = core::RunFleet(documents, options);

    LoadResult r;
    r.articles = n;
    r.row_budget = options.check.governor.max_row_scans;
    r.claims = run.claims_total;
    r.total_seconds = run.total_seconds;
    r.throughput = run.throughput();
    r.p99_latency = P99Latency(run);
    r.verified = run.claims_verified;
    r.partial = run.claims_partial;
    r.failed = run.documents_failed;
    r.exhausted = run.documents_exhausted;
    r.rows_charged = run.usage.rows_charged;
    ScoreDetection(fleet, run, &r);
    results.push_back(r);

    std::printf(
        "load=%4zu articles  %5zu claims  total=%7.2fs  "
        "throughput=%7.1f claims/s  p99_latency=%6.3fs  "
        "[verified=%zu partial=%zu failed=%zu exhausted=%zu]  "
        "detection tp=%zu fp=%zu fn=%zu\n",
        r.articles, r.claims, r.total_seconds, r.throughput, r.p99_latency,
        r.verified, r.partial, r.failed, r.exhausted, r.tp, r.fp, r.fn);
  }

  // Bit-identity at the largest load: the pooled fleet run must produce
  // per-document verdicts byte-identical to the one-at-a-time reference
  // under the same global budget.
  const size_t max_load = results.back().articles;
  std::vector<core::FleetDocument> documents(
      all_documents.begin(), all_documents.begin() + max_load);
  core::FleetOptions options;
  options.num_threads = threads_used;
  options.check.governor.max_row_scans =
      static_cast<uint64_t>(max_load) * 20'000'000ull;
  core::FleetRunResult scheduled = core::RunFleet(documents, options);
  core::FleetRunResult sequential =
      core::RunFleetSequential(documents, options);
  bool bit_identical = true;
  for (size_t i = 0; i < scheduled.documents.size(); ++i) {
    const auto& a = scheduled.documents[i];
    const auto& b = sequential.documents[i];
    if (a.status.ok() != b.status.ok() ||
        (a.status.ok() && core::FleetVerdictFingerprint(a.report) !=
                              core::FleetVerdictFingerprint(b.report))) {
      bit_identical = false;
      std::printf("BIT-IDENTITY VIOLATION at document %zu\n", i);
    }
  }
  std::printf("bit-identity fleet-vs-sequential at %zu articles: %s\n",
              max_load, bit_identical ? "OK" : "FAILED");

  if (FILE* out = std::fopen("BENCH_fleet.json", "w")) {
    std::fprintf(out,
                 "{\n  \"mode\": \"%s\",\n  \"spec\": {\"seed\": %llu, "
                 "\"articles\": %zu, \"datasets\": %zu, "
                 "\"claims_per_article\": %zu, \"dim_columns\": %zu, "
                 "\"measure_columns\": %zu, \"rows_per_dataset\": %zu, "
                 "\"dim_cardinality\": %zu, \"error_rate\": %.3f},\n",
                 smoke ? "smoke" : "full",
                 static_cast<unsigned long long>(spec.seed),
                 spec.num_articles, spec.num_datasets,
                 spec.claims_per_article, spec.num_dim_columns,
                 spec.num_measure_columns, spec.rows_per_dataset,
                 spec.dim_cardinality, spec.error_rate);
    std::fprintf(out, "  ");
    bench::WriteThreadReportJson(out, threads);
    std::fprintf(out, ",\n  \"generation_seconds\": %.3f,\n  \"loads\": [\n",
                 generation_seconds);
    for (size_t i = 0; i < results.size(); ++i) {
      const LoadResult& r = results[i];
      std::fprintf(
          out,
          "    {\"articles\": %zu, \"claims\": %zu, \"row_budget\": %llu, "
          "\"total_seconds\": %.4f, \"throughput_claims_per_sec\": %.2f, "
          "\"p99_latency_seconds\": %.4f, \"claims_verified\": %zu, "
          "\"claims_partial\": %zu, \"documents_failed\": %zu, "
          "\"documents_exhausted\": %zu, \"rows_charged\": %llu, "
          "\"detection\": {\"tp\": %zu, \"fp\": %zu, \"fn\": %zu, "
          "\"misaligned\": %zu}}%s\n",
          r.articles, r.claims,
          static_cast<unsigned long long>(r.row_budget), r.total_seconds,
          r.throughput, r.p99_latency, r.verified, r.partial, r.failed,
          r.exhausted, static_cast<unsigned long long>(r.rows_charged),
          r.tp, r.fp, r.fn, r.misaligned,
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n  \"bit_identity\": {\"articles\": %zu, \"equal\": "
                 "%s}\n}\n",
                 max_load, bit_identical ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_fleet.json\n");
  }

  if (smoke) {
    // The fleet-smoke gate (scripts/check.sh fleet-smoke).
    const LoadResult& r = results.back();
    bool ok = true;
    if (r.throughput <= 0 || r.verified == 0) {
      std::printf("FLEET-SMOKE FAIL: zero throughput\n");
      ok = false;
    }
    if (r.fp != 0 || r.fn != 0 || r.misaligned != 0) {
      std::printf("FLEET-SMOKE FAIL: %zu erroneous verdicts vs ground truth "
                  "(fp=%zu fn=%zu misaligned=%zu)\n",
                  r.fp + r.fn + r.misaligned, r.fp, r.fn, r.misaligned);
      ok = false;
    }
    if (r.failed != 0) {
      std::printf("FLEET-SMOKE FAIL: %zu documents failed\n", r.failed);
      ok = false;
    }
    if (!bit_identical) {
      std::printf("FLEET-SMOKE FAIL: fleet run not bit-identical to "
                  "sequential reference\n");
      ok = false;
    }
    std::printf("fleet-smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  return bit_identical ? 0 : 1;
}
