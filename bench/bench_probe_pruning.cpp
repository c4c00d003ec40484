// Verification-aware candidate pruning (DESIGN.md §17): cheap probes
// against ColumnStats kill candidates before EM evaluation. Over the
// Table 6 dataset (embedded articles + scaled synthetic corpus) this bench
// measures pruning on two rungs of the Table 6 strategy ladder, running
// the full check twice per rung — model.probe_pruning on and off, all
// checkers adopting the same fragment catalog so the candidate spaces are
// identical:
//
//   naive rung:        per-candidate evaluation, the Fig. 8 cost model the
//                      probe attacks — every pruned candidate skips a full
//                      scan, so wall-clock tracks the candidate count.
//                      This is where the end-to-end speedup gate lives.
//   merged-cached rung: the engine's merged-cube/plan-cache sharing
//                      already collapses per-candidate cost, and charge
//                      parity pins the scan set, so pruning shows up as
//                      skipped aggregation kernels (dead slices), not
//                      wall-clock — reported, not gated.
//
// Gates (scripts/check.sh probe-smoke runs --smoke): candidate reduction
// >= 30%, naive-rung speedup >= x1.3, and pruned/unpruned reports
// bit-identical on every case of both rungs. Results land in
// BENCH_probe.json; the EXPERIMENTS.md Fig. 8 table is derived from the
// full run.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/aggchecker.h"
#include "core/fleet_scheduler.h"
#include "corpus/embedded_articles.h"
#include "corpus/generator.h"
#include "corpus/harness.h"
#include "util/timer.h"

namespace {

using namespace aggchecker;

constexpr double kReductionGate = 0.30;
constexpr double kSpeedupGate = 1.3;

struct Arm {
  std::vector<core::AggChecker> checkers;
  std::vector<core::CheckReport> reports;
  double seconds = 0;
};

// Timed pass: run every case's check through this arm's checkers.
bool RunArm(Arm* arm, const std::vector<corpus::CorpusCase>& cases,
            const char* what) {
  Timer timer;
  arm->reports.reserve(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    auto report = arm->checkers[i].Check(cases[i].document);
    if (!report.ok()) {
      std::fprintf(stderr, "%s check %s: %s\n", what, cases[i].name.c_str(),
                   report.status().ToString().c_str());
      return false;
    }
    arm->reports.push_back(std::move(*report));
  }
  arm->seconds = timer.ElapsedSeconds();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::Header("Verification-aware candidate pruning: probes vs full eval",
                "Fig. 8 cost driver; gate: >= 30% pruned, >= x1.3 naive");

  corpus::GeneratorOptions gen;
  gen.num_cases = smoke ? 7 : 50;
  gen.row_scale = smoke ? 2 : 20;
  std::vector<corpus::CorpusCase> cases = corpus::EmbeddedArticles();
  for (auto& c : corpus::GenerateCorpus(gen)) cases.push_back(std::move(c));
  size_t total_rows = 0;
  for (const auto& c : cases) total_rows += c.database.TotalRows();
  std::printf("corpus: %zu cases, %zu total rows (mode=%s)\n", cases.size(),
              total_rows, smoke ? "smoke" : "full");

  // Untimed setup: four checkers per case (pruned/unpruned x naive/merged),
  // all sharing one fragment catalog so every arm translates the identical
  // candidate space and the timed region is pure translation+evaluation.
  // All use the Table 6 evaluation regime (see bench_table6_runtime):
  // widened per-claim scope so candidate evaluation dominates end-to-end
  // time — the cost driver Fig. 8 identifies and the probe stage attacks.
  Arm merged_on, merged_off, naive_on, naive_off;
  for (const corpus::CorpusCase& c : cases) {
    core::CheckOptions base;
    base.model.max_eval_per_claim = 800;
    base.model.lucene_hits = 30;
    core::CheckOptions on = base;
    on.model.probe_pruning = true;
    auto pruned = core::AggChecker::Create(&c.database, on);
    if (!pruned.ok()) {
      std::fprintf(stderr, "create %s: %s\n", c.name.c_str(),
                   pruned.status().ToString().c_str());
      return 1;
    }
    base.prebuilt_catalog = pruned->shared_catalog();
    core::CheckOptions off = base;
    off.model.probe_pruning = false;
    core::CheckOptions non = base;
    non.model.probe_pruning = true;
    non.strategy = db::EvalStrategy::kNaive;
    core::CheckOptions noff = non;
    noff.model.probe_pruning = false;
    auto unpruned = core::AggChecker::Create(&c.database, off);
    auto naive_pruned = core::AggChecker::Create(&c.database, non);
    auto naive_unpruned = core::AggChecker::Create(&c.database, noff);
    if (!unpruned.ok() || !naive_pruned.ok() || !naive_unpruned.ok()) {
      return 1;
    }
    merged_on.checkers.push_back(std::move(*pruned));
    merged_off.checkers.push_back(std::move(*unpruned));
    naive_on.checkers.push_back(std::move(*naive_pruned));
    naive_off.checkers.push_back(std::move(*naive_unpruned));
  }

  // Naive rung first (the Fig. 8 regime), unpruned reference before pruned.
  if (!RunArm(&naive_off, cases, "naive unpruned")) return 1;
  if (!RunArm(&naive_on, cases, "naive pruned")) return 1;
  if (!RunArm(&merged_off, cases, "merged unpruned")) return 1;
  if (!RunArm(&merged_on, cases, "merged pruned")) return 1;

  // Differential step (untimed): pruning must not move a single byte of
  // any report, on either rung.
  bool bit_identical = true;
  model::ProbeStats probes, naive_probes;
  size_t slices_skipped = 0;
  db::EvalStats pruned_eval, unpruned_eval;
  auto fold_eval = [](db::EvalStats* sum, const db::EvalStats& s) {
    sum->execute_seconds += s.execute_seconds;
    sum->query_seconds += s.query_seconds;
    sum->cube_queries += s.cube_queries;
    sum->rows_scanned += s.rows_scanned;
    sum->probe_jobs_dead += s.probe_jobs_dead;
    sum->probe_slices_total += s.probe_slices_total;
    sum->probe_slice_rows_total += s.probe_slice_rows_total;
    sum->probe_slice_rows_skipped += s.probe_slice_rows_skipped;
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    if (core::FleetVerdictFingerprint(merged_on.reports[i]) !=
        core::FleetVerdictFingerprint(merged_off.reports[i])) {
      std::printf("BIT-IDENTITY VIOLATION (merged) on %s\n",
                  cases[i].name.c_str());
      bit_identical = false;
    }
    if (core::FleetVerdictFingerprint(naive_on.reports[i]) !=
        core::FleetVerdictFingerprint(naive_off.reports[i])) {
      std::printf("BIT-IDENTITY VIOLATION (naive) on %s\n",
                  cases[i].name.c_str());
      bit_identical = false;
    }
    probes.Add(merged_on.reports[i].probe_stats);
    naive_probes.Add(naive_on.reports[i].probe_stats);
    slices_skipped += merged_on.reports[i].eval_stats.probe_slices_skipped;
    fold_eval(&pruned_eval, merged_on.reports[i].eval_stats);
    fold_eval(&unpruned_eval, merged_off.reports[i].eval_stats);
  }

  const double reduction =
      probes.candidates_probed > 0
          ? static_cast<double>(probes.candidates_pruned) /
                static_cast<double>(probes.candidates_probed)
          : 0;
  const double naive_speedup =
      naive_on.seconds > 0 ? naive_off.seconds / naive_on.seconds : 0;
  const double merged_speedup =
      merged_on.seconds > 0 ? merged_off.seconds / merged_on.seconds : 0;

  std::printf("candidates probed:  %zu\n", probes.candidates_probed);
  std::printf("candidates pruned:  %zu (%.1f%%; gate: >= %.0f%%)\n",
              probes.candidates_pruned, reduction * 100,
              kReductionGate * 100);
  std::printf("  by absent domain: %zu\n", probes.pruned_domain);
  std::printf("  by magnitude:     %zu\n", probes.pruned_magnitude);
  std::printf("naive rung (per-candidate evaluation, Fig. 8 regime):\n");
  std::printf("  unpruned: %8.3fs   pruned: %8.3fs   speedup: x%.2f "
              "(gate: >= x%.1f)\n",
              naive_off.seconds, naive_on.seconds, naive_speedup,
              kSpeedupGate);
  std::printf("merged+cached rung (shared scans pinned by charge parity):\n");
  std::printf("  unpruned: %8.3fs   pruned: %8.3fs   speedup: x%.2f "
              "(reported, not gated)\n",
              merged_off.seconds, merged_on.seconds, merged_speedup);
  std::printf("  probe overhead %.3fs; top-k backfills: %zu\n",
              probes.probe_seconds, probes.backfilled);
  std::printf("  dead slices: %zu of %zu; kernel rows skipped %zu of %zu "
              "(%.1f%%); all-dead cube jobs %zu of %zu\n",
              slices_skipped, pruned_eval.probe_slices_total,
              pruned_eval.probe_slice_rows_skipped,
              pruned_eval.probe_slice_rows_total,
              pruned_eval.probe_slice_rows_total > 0
                  ? 100.0 * pruned_eval.probe_slice_rows_skipped /
                        pruned_eval.probe_slice_rows_total
                  : 0.0,
              pruned_eval.probe_jobs_dead, pruned_eval.cube_queries);
  std::printf("bit-identity pruned-vs-unpruned over %zu cases x 2 rungs: "
              "%s\n",
              cases.size(), bit_identical ? "OK" : "FAILED");

  if (FILE* out = std::fopen("BENCH_probe.json", "w")) {
    std::fprintf(out, "{\n  \"mode\": \"%s\",\n  \"cases\": %zu,\n",
                 smoke ? "smoke" : "full", cases.size());
    std::fprintf(out,
                 "  \"candidates_probed\": %zu,\n"
                 "  \"candidates_pruned\": %zu,\n"
                 "  \"pruned_domain\": %zu,\n  \"pruned_magnitude\": %zu,\n"
                 "  \"probe_conflicts\": %zu,\n  \"backfilled\": %zu,\n"
                 "  \"slices_skipped\": %zu,\n  \"jobs_all_dead\": %zu,\n",
                 probes.candidates_probed, probes.candidates_pruned,
                 probes.pruned_domain, probes.pruned_magnitude,
                 probes.probe_conflicts, probes.backfilled, slices_skipped,
                 pruned_eval.probe_jobs_dead);
    std::fprintf(out,
                 "  \"reduction\": %.4f,\n  \"reduction_gate\": %.2f,\n"
                 "  \"naive_unpruned_seconds\": %.6f,\n"
                 "  \"naive_pruned_seconds\": %.6f,\n"
                 "  \"naive_speedup\": %.3f,\n  \"speedup_gate\": %.1f,\n"
                 "  \"naive_candidates_pruned\": %zu,\n"
                 "  \"merged_unpruned_seconds\": %.6f,\n"
                 "  \"merged_pruned_seconds\": %.6f,\n"
                 "  \"merged_speedup\": %.3f,\n"
                 "  \"probe_seconds\": %.6f,\n"
                 "  \"kernel_rows_skipped\": %zu,\n"
                 "  \"kernel_rows_total\": %zu,\n",
                 reduction, kReductionGate, naive_off.seconds,
                 naive_on.seconds, naive_speedup, kSpeedupGate,
                 naive_probes.candidates_pruned, merged_off.seconds,
                 merged_on.seconds, merged_speedup, probes.probe_seconds,
                 pruned_eval.probe_slice_rows_skipped,
                 pruned_eval.probe_slice_rows_total);
    std::fprintf(out, "  \"bit_identical\": %s,\n  ",
                 bit_identical ? "true" : "false");
    bench::WriteThreadReportJson(out, bench::MakeThreadReport(1));
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_probe.json\n");
  }

  if (!bit_identical) return 1;
  if (reduction < kReductionGate) {
    std::fprintf(stderr,
                 "bench_probe_pruning: FAIL — only %.1f%% of candidates "
                 "pruned (gate: >= %.0f%%)\n",
                 reduction * 100, kReductionGate * 100);
    return 1;
  }
  if (naive_speedup < kSpeedupGate) {
    std::fprintf(stderr,
                 "bench_probe_pruning: FAIL — naive-rung pruning is only "
                 "x%.2f the unpruned run (gate: >= x%.1f)\n",
                 naive_speedup, kSpeedupGate);
    return 1;
  }
  return 0;
}
