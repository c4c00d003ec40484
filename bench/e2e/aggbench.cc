// aggbench: end-to-end benchmark of the checker with per-layer attribution.
//
//   aggbench --workload=NAME [--seed=N] [--seconds=S] [--trace=FILE] [--smoke]
//   aggbench --self-test
//
// Workloads (see README.md for why each exists):
//   table6_cold      Table 6 corpus at row_scale 20, fresh checker per case,
//                    2 threads: scan-heavy, engine caches start cold
//   fleet_shared     300 articles over 8 shared data sets drained by
//                    RunFleet with 2 workers
//   recheck_refresh  53 warm checkers; each round appends 64 rows to one
//                    table of one case, then ReCheck runs on every case
//
// Every workload is closed-loop (the next request is sent when the previous
// one completes) and runs in this one process on at most 2 threads. It runs
// untimed warm-up, then timed passes until --seconds have passed and at
// least 100 latency samples exist. The program is driven only through its
// public API and the counters that API returns; spans are recorded here,
// around the calls, never inside the checker.
//
// Outputs are checked, not only timed; a failed check makes the exit code
// nonzero. The last line of stdout is one JSON object: {"correct",
// "attempted", "failed", "metrics"}, with the end-to-end metrics, or with
// the per-layer metrics when --trace is given.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_support.h"
#include "claims/claim_detector.h"
#include "claims/relevance_scorer.h"
#include "core/aggchecker.h"
#include "core/fleet_scheduler.h"
#include "corpus/embedded_articles.h"
#include "corpus/fleet_generator.h"
#include "corpus/generator.h"
#include "corpus/harness.h"
#include "corpus/metrics.h"
#include "db/relation_cache.h"
#include "fragments/catalog.h"
#include "util/timer.h"

namespace {

using namespace aggchecker;
using aggbench::Span;

/// The reported tail percentile. A document corpus's p95 is set by its two
/// or three heaviest documents; p90 lies where documents are dense.
constexpr double kTail = 0.90;
/// With 100 samples, 10 lie beyond the nearest-rank p90.
constexpr size_t kMinSamples = 100;
constexpr size_t kMinTimedPasses = 2;
constexpr size_t kAppendRows = 64;
constexpr size_t kSetupRepeats = 5;  ///< set-ups per run, for a steady median

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 30;
  std::string trace_path;  ///< empty: untraced
  bool smoke = false;
  bool self_test = false;
};

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "aggbench: %s\n", why.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(*result);
}

/// Per-layer sums of one pass (or one set-up), keyed by metric name.
using Sums = std::map<std::string, double>;

/// State of one workload run: samples, per-pass sums and check outcomes.
struct Run {
  explicit Run(const Args& a) : args(a), tracer(!a.trace_path.empty()) {}

  bool traced() const { return tracer.enabled(); }
  void Fail(const std::string& why) {
    if (failures.size() < 20) failures.push_back(why);
    ++num_failures;
  }
  /// Counts one request's claims toward `attempted` / `failed`.
  void Count(const core::CheckReport& report) {
    for (const auto& v : report.verdicts) {
      ++attempted;
      if (v.partial || v.recovery.quarantined) ++failed;
    }
  }

  const Args& args;
  aggbench::Tracer tracer;
  int next_request = 0;
  double inputs_s = 0;                   ///< generating the inputs
  std::vector<double> latencies_ms;      ///< pooled over timed passes
  std::vector<double> drain_p50_ms;      ///< fleet: one per timed drain
  std::vector<double> drain_tail_ms;     ///< fleet: one per timed drain
  std::vector<double> claims_per_s;      ///< one per timed pass
  std::vector<double> setups_s;          ///< one per set-up
  std::vector<Sums> pass_sums;           ///< one per timed pass
  std::vector<Sums> setup_sums;          ///< set-up-only layers
  size_t attempted = 0, failed = 0;      ///< claims, timed passes only
  corpus::ErrorDetectionMetrics detection;
  std::vector<std::string> failures;
  size_t num_failures = 0;
};

/// Runs `pass(timed)` `warmups` times untimed, then timed until the run has
/// lasted --seconds (stopping before a pass that would overrun), with at
/// least kMinTimedPasses passes and kMinSamples latency samples.
template <typename PassFn>
void Drive(Run* run, size_t warmups, PassFn pass) {
  for (size_t i = 0; i < warmups; ++i) pass(false);
  Timer timer;
  size_t passes = 0;
  for (;;) {
    const double elapsed = timer.ElapsedSeconds();
    const bool enough = passes >= kMinTimedPasses &&
                        run->latencies_ms.size() >= kMinSamples;
    if (enough && elapsed + elapsed / passes > run->args.seconds) break;
    pass(true);
    ++passes;
  }
}

void AddEval(Sums* s, const db::EvalStats& e, double sign) {
  Sums& m = *s;
  m["db.query_s"] += sign * e.query_seconds;
  m["db.plan_s"] += sign * e.plan_seconds;
  m["db.execute_s"] += sign * e.execute_seconds;
  m["db.fold_s"] += sign * e.fold_seconds;
  m["db.answer_s"] += sign * e.answer_seconds;
  m["db.join_s"] += sign * e.join_seconds;
  m["db.cache_hits"] += sign * static_cast<double>(e.cache_hits);
  m["db.cache_lookups"] +=
      sign * static_cast<double>(e.cache_hits + e.cache_misses);
  m["db.plan_cache_hits"] += sign * static_cast<double>(e.plan_cache_hits);
  m["db.plan_lookups"] +=
      sign * static_cast<double>(e.plan_cache_hits + e.plans_built);
  m["db.join_cache_hits"] += sign * static_cast<double>(e.join_cache_hits);
  m["db.join_lookups"] +=
      sign * static_cast<double>(e.join_cache_hits + e.joins_built);
  m["db.kernel_rows_skipped"] +=
      sign * static_cast<double>(e.probe_slice_rows_skipped);
  m["db.kernel_rows"] += sign * static_cast<double>(e.probe_slice_rows_total);
  m["db.rows_scanned"] += sign * static_cast<double>(e.rows_scanned);
  m["db.cube_queries"] += sign * static_cast<double>(e.cube_queries);
  m["db.cache_invalidations"] +=
      sign * static_cast<double>(e.cache_invalidations);
}

/// Adds one report's counters. `engine_before` is the engine's cumulative
/// EvalStats before the call (a checker's engine counts across calls).
Sums ReportSums(const core::CheckReport& r, const db::EvalStats& engine_before) {
  Sums s;
  AddEval(&s, r.eval_stats, +1);
  AddEval(&s, engine_before, -1);
  s["core.claims_spliced"] = static_cast<double>(r.claims_spliced);
  s["core.claims_rechecked"] = static_cast<double>(r.claims_rechecked);
  // A ReCheck that spliced every claim copies the prior's model and
  // governor counters; only reports that evaluated something add them.
  if (r.claims_spliced == 0 || r.claims_rechecked > 0) {
    s["model.candidates"] = static_cast<double>(r.total_candidates);
    s["model.queries_evaluated"] = static_cast<double>(r.queries_evaluated);
    s["model.em_iterations"] = r.em_iterations;
    s["model.probe_s"] = r.probe_stats.probe_seconds;
    s["model.candidates_probed"] =
        static_cast<double>(r.probe_stats.candidates_probed);
    s["model.candidates_pruned"] =
        static_cast<double>(r.probe_stats.candidates_pruned);
    s["model.backfilled"] = static_cast<double>(r.probe_stats.backfilled);
    s["util.rows_charged"] = static_cast<double>(r.governor_usage.rows_charged);
  }
  return s;
}

void Accumulate(Sums* into, const Sums& add) {
  for (const auto& [k, v] : add) (*into)[k] += v;
}

/// Attaches a request's counters to its span.
void AttachArgs(Span* span, const Sums& sums) {
  for (const auto& [k, v] : sums) {
    if (v != 0) span->Arg(k, v);
  }
}

size_t CountVerified(const core::CheckReport& report) {
  return report.verdicts.size() - report.NumPartial();
}

// ---------------------------------------------------------------------------
// Standalone layer timings (traced runs only): the layers Check runs
// internally, called once more on the same inputs.

fragments::FragmentCatalog TimedBuild(Run* run, const db::Database& db,
                                      const core::CheckOptions& options,
                                      Sums* sums) {
  Span span(&run->tracer, "build");
  Timer timer;
  auto catalog = Must(fragments::FragmentCatalog::Build(db, options.catalog),
                      "FragmentCatalog::Build");
  (*sums)["fragments.build_s"] += timer.ElapsedSeconds();
  for (int t = 0; t < fragments::kNumFragmentTypes; ++t) {
    (*sums)["fragments.count"] += static_cast<double>(
        catalog.fragments(static_cast<fragments::FragmentType>(t)).size());
  }
  return catalog;
}

/// Detection, then (when `catalog` is given) keyword scoring of the claims.
void TimedDetectScore(Run* run, const text::TextDocument& doc,
                      const fragments::FragmentCatalog* catalog,
                      const core::CheckOptions& options, Sums* sums) {
  std::vector<claims::Claim> detected;
  {
    Span span(&run->tracer, "detect");
    Timer timer;
    detected = claims::ClaimDetector(options.detector).Detect(doc);
    (*sums)["claims.detect_s"] += timer.ElapsedSeconds();
  }
  if (catalog == nullptr) return;
  Span span(&run->tracer, "score");
  Timer timer;
  claims::RelevanceScorer scorer(catalog,
                                 claims::KeywordExtractor(options.context),
                                 options.model.lucene_hits);
  auto relevance = scorer.ScoreAll(doc, detected);
  (*sums)["claims.score_s"] += timer.ElapsedSeconds();
  if (relevance.size() != detected.size()) run->Fail("ScoreAll size mismatch");
}

// ---------------------------------------------------------------------------
// Inputs.

// Inputs are stratified: --seed draws every data value, claim and error,
// while the sizes that set the amount of work follow the inputs of
// kReferenceSeed. Runs with different seeds then differ in content but not
// in how much work they measure. Seed 42 gives exactly the corpus of
// bench_table6_runtime and the first articles of bench_fleet_throughput.
constexpr uint64_t kReferenceSeed = 42;
constexpr size_t kCandidates = 16;
/// Each fleet candidate costs its data sets plus a checker per data set.
constexpr size_t kFleetCandidates = 8;

/// Candidate k of a seed's draws; candidate 0 is the seed itself.
uint64_t SubSeed(uint64_t seed, size_t k) { return seed + k * 1000003ull; }

/// Whether detection finds exactly the case's ground-truth claims, in
/// order. The generator promises this, but a few (seed, row_scale) draws
/// break it, and scoring by position would then be wrong.
bool Aligned(const corpus::CorpusCase& c) {
  core::CheckReport detected;
  for (claims::Claim& claim : claims::ClaimDetector().Detect(c.document)) {
    detected.verdicts.emplace_back().claim = std::move(claim);
  }
  return corpus::ValidateAlignment(c, detected).ok();
}

/// Case `slot` drawn from `seed`, sized like `like`: the first aligned
/// candidate within one claim or one erroneous claim of `like` is kept, its
/// rows scaled to `like`'s (failing that, the closest of kCandidates).
/// Matching the erroneous claims keeps error_f1 from following how many
/// errors a seed happened to inject.
corpus::CorpusCase MatchedCase(size_t slot, uint64_t seed,
                               const corpus::CorpusCase& like) {
  const double rows = static_cast<double>(like.database.TotalRows());
  corpus::CorpusCase best;
  double best_gap = 1e300;
  for (size_t k = 0; k < kCandidates && best_gap > 1.05; ++k) {
    corpus::GeneratorOptions gen;
    gen.seed = SubSeed(seed, k);
    corpus::CorpusCase c = corpus::GenerateCase(slot, gen);
    // A case's row count is the generator's first draw times row_scale, so
    // a per-case row_scale reaches the target row count closely.
    gen.row_scale = static_cast<size_t>(std::max(
        1.0, std::round(rows / static_cast<double>(c.database.TotalRows()))));
    if (gen.row_scale > 1) c = corpus::GenerateCase(slot, gen);
    if (!Aligned(c)) continue;
    const double gap =
        std::fabs(static_cast<double>(c.ground_truth.size()) -
                  static_cast<double>(like.ground_truth.size())) +
        std::fabs(static_cast<double>(c.NumErroneous()) -
                  static_cast<double>(like.NumErroneous())) +
        std::fabs(static_cast<double>(c.database.TotalRows()) / rows - 1);
    if (gap < best_gap) {
      best_gap = gap;
      best = std::move(c);
    }
  }
  if (best_gap == 1e300) Die("no aligned case for slot " + std::to_string(slot));
  return best;
}

/// The Table 6 corpus: the embedded articles plus 50 generated cases.
std::vector<corpus::CorpusCase> Table6Corpus(const Args& args,
                                             size_t row_scale) {
  corpus::GeneratorOptions reference;
  reference.seed = kReferenceSeed;
  reference.row_scale = row_scale;
  std::vector<corpus::CorpusCase> cases = corpus::EmbeddedArticles();
  for (size_t slot = 0; slot < (args.smoke ? 10u : 50u); ++slot) {
    cases.push_back(MatchedCase(slot, args.seed,
                                corpus::GenerateCase(slot, reference)));
  }
  return cases;
}

/// Distinct values over all columns of a fleet's data sets: the literals
/// their fragment catalogs index, which size catalog builds and candidate
/// spaces.
double FleetLiterals(const corpus::FleetCorpus& fleet) {
  double literals = 0;
  for (const auto& db : fleet.datasets) {
    for (size_t t = 0; t < db->num_tables(); ++t) {
      const db::Table& table = db->table(t);
      for (size_t c = 0; c < table.num_columns(); ++c) {
        literals += static_cast<double>(table.column(c).Stats().distinct);
      }
    }
  }
  return literals;
}

/// The fleet drawn from the candidate seed whose data sets hold the
/// reference fleet's number of literals most closely.
corpus::FleetCorpus SharedFleet(corpus::FleetSpec spec, uint64_t seed) {
  const size_t articles = spec.num_articles;
  spec.num_articles = 0;  // data sets only, to pick the candidate
  spec.seed = kReferenceSeed;
  const double target = FleetLiterals(corpus::GenerateFleet(spec));
  double best_gap = 1e300;
  size_t best = 0;
  for (size_t k = 0; k < kFleetCandidates && best_gap > 0.03; ++k) {
    spec.seed = SubSeed(seed, k);
    const double gap = std::fabs(
        FleetLiterals(corpus::GenerateFleet(spec)) / target - 1);
    if (gap < best_gap) {
      best_gap = gap;
      best = k;
    }
  }
  spec.seed = SubSeed(seed, best);
  spec.num_articles = articles;
  return corpus::GenerateFleet(spec);
}

/// Table 6 settings with the default merged+cached strategy.
core::CheckOptions Table6Options(size_t threads) {
  core::CheckOptions options;
  options.model.max_eval_per_claim = 800;
  options.model.lucene_hits = 30;
  options.model.num_threads = threads;
  return options;
}

/// Scores a case's report against ground truth; misalignment is a failure.
void ScoreCase(Run* run, const corpus::CorpusCase& c,
               const core::CheckReport& report) {
  Status aligned = corpus::ValidateAlignment(c, report);
  if (!aligned.ok()) run->Fail(aligned.ToString());
  run->detection.Merge(corpus::ScoreErrorDetection(c, report));
}

// ---------------------------------------------------------------------------
// table6_cold: one Check per case, fresh checker each time.

void RunTable6Workload(Run* run) {
  Timer inputs_timer;
  std::vector<corpus::CorpusCase> cases =
      Table6Corpus(run->args, run->args.smoke ? 4 : 20);
  run->inputs_s = inputs_timer.ElapsedSeconds();
  const core::CheckOptions options = Table6Options(2);
  std::vector<std::string> reference;  // per-case fingerprint of pass 0
  int pass_no = 0;

  Drive(run, 1, [&](bool timed) {
    Span pass_span(&run->tracer, timed ? "pass" : "warmup");
    pass_span.Arg("pass", pass_no);
    Sums sums;
    std::vector<core::CheckReport> reports;
    reports.reserve(cases.size());
    std::vector<double> latencies;
    double setup_s = 0;
    size_t verified = 0;

    Timer pass_timer;
    for (corpus::CorpusCase& c : cases) {
      // Each article's data set is new to the engine: no warm relations.
      c.database.relation_cache().Clear();
      Span doc_span(&run->tracer, "document");
      doc_span.Arg("request", run->next_request++);
      doc_span.Arg("case", c.name);
      Timer timer;
      core::AggChecker checker = [&] {
        Span span(&run->tracer, "create");
        return Must(core::AggChecker::Create(&c.database, options), "Create");
      }();
      const double create_s = timer.ElapsedSeconds();
      timer.Reset();
      Span check_span(&run->tracer, "check");
      core::CheckReport report = Must(checker.Check(c.document), "Check");
      const double check_s = timer.ElapsedSeconds();
      Sums request = ReportSums(report, db::EvalStats{});
      if (run->traced()) AttachArgs(&check_span, request);
      request["core.create_s"] = create_s;
      request["core.check_s"] = check_s;
      Accumulate(&sums, request);
      setup_s += create_s;
      latencies.push_back(check_s * 1e3);
      verified += CountVerified(report);
      reports.push_back(std::move(report));
    }
    const double wall_s = pass_timer.ElapsedSeconds();

    for (size_t i = 0; i < cases.size(); ++i) {
      std::string fp = core::FleetVerdictFingerprint(reports[i]);
      if (pass_no == 0) {
        ScoreCase(run, cases[i], reports[i]);
        reference.push_back(std::move(fp));
      } else if (fp != reference[i]) {
        run->Fail("pass " + std::to_string(pass_no) + ": verdicts of " +
                  cases[i].name + " differ from pass 0");
      }
    }
    if (run->traced()) {
      for (const corpus::CorpusCase& c : cases) {
        fragments::FragmentCatalog catalog =
            TimedBuild(run, c.database, options, &sums);
        TimedDetectScore(run, c.document, &catalog, options, &sums);
      }
    }
    if (timed) {
      for (const auto& r : reports) run->Count(r);
      run->latencies_ms.insert(run->latencies_ms.end(), latencies.begin(),
                               latencies.end());
      run->claims_per_s.push_back(static_cast<double>(verified) / wall_s);
      run->setups_s.push_back(setup_s);
      run->pass_sums.push_back(std::move(sums));
    }
    ++pass_no;
  });
}

// ---------------------------------------------------------------------------
// fleet_shared: RunFleet drains a batch submitted at t=0 with 2 workers.

/// Places measured spans on the fewest lanes where none overlap.
std::vector<int> AssignLanes(const std::vector<std::pair<double, double>>& spans,
                             int first_lane) {
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return spans[a].first < spans[b].first;
  });
  std::vector<double> lane_end;
  std::vector<int> lane(spans.size());
  for (size_t i : order) {
    size_t l = 0;
    while (l < lane_end.size() && lane_end[l] > spans[i].first) ++l;
    if (l == lane_end.size()) lane_end.push_back(0);
    lane_end[l] = spans[i].second;
    lane[i] = first_lane + static_cast<int>(l);
  }
  return lane;
}

void RunFleetWorkload(Run* run) {
  // The bench_fleet_throughput spec at 300 articles: schedules many small
  // documents over a few shared data sets.
  corpus::FleetSpec spec;
  spec.num_articles = run->args.smoke ? 50 : 300;
  spec.num_datasets = run->args.smoke ? 2 : 8;
  spec.claims_per_article = 5;
  spec.num_dim_columns = 12;
  spec.num_measure_columns = 4;
  spec.rows_per_dataset = run->args.smoke ? 800 : 1500;
  spec.dim_cardinality = 24;
  spec.error_rate = 0.12;
  Timer inputs_timer;
  const corpus::FleetCorpus fleet = SharedFleet(spec, run->args.seed);
  run->inputs_s = inputs_timer.ElapsedSeconds();
  if (fleet.articles_dropped != 0) run->Fail("fleet generator dropped articles");
  const std::vector<core::FleetDocument> documents =
      corpus::FleetDocuments(fleet);

  core::FleetOptions options;
  options.num_threads = 2;
  // RunFleet checks each document serially; Create is timed the same way.
  options.check.model.num_threads = 1;

  // Set-up, as a service would hold it: one Create per shared data set.
  // RunFleet itself creates a checker per document inside the drain, so
  // this is timed apart, once before every drain: the set-ups spread over
  // the run like the drains, and their median is steady.
  std::vector<double> create_total_s(fleet.datasets.size());
  size_t setups = 0;
  std::vector<fragments::FragmentCatalog> catalogs;  // traced runs: scoring
  auto set_up = [&] {
    Span setup_span(&run->tracer, "setup");
    Sums setup;
    for (size_t d = 0; d < fleet.datasets.size(); ++d) {
      Span span(&run->tracer, "create");
      Timer timer;
      core::AggChecker checker = Must(
          core::AggChecker::Create(fleet.datasets[d].get(), options.check),
          "Create");
      const double seconds = timer.ElapsedSeconds();
      create_total_s[d] += seconds;
      setup["core.create_s"] += seconds;
    }
    ++setups;
    run->setups_s.push_back(setup["core.create_s"]);
    if (run->traced()) {
      catalogs.clear();
      for (const auto& dataset : fleet.datasets) {
        catalogs.push_back(TimedBuild(run, *dataset, options.check, &setup));
      }
    }
    run->setup_sums.push_back(std::move(setup));
  };

  // Articles go to data sets round-robin, so this prefix warms every data
  // set's lazy state (column statistics, relation cache) before timing.
  const std::vector<core::FleetDocument> warmup(
      documents.begin(),
      documents.begin() + std::min(documents.size(), 5 * fleet.datasets.size()));

  int pass_no = 0;
  Drive(run, 1, [&](bool timed) {
    set_up();
    Span pass_span(&run->tracer, timed ? "drain" : "warmup");
    pass_span.Arg("pass", pass_no);
    Sums sums;
    std::vector<double> latencies_ms;
    const double drain_start_us = run->tracer.NowUs();
    const core::FleetRunResult result =
        core::RunFleet(timed ? documents : warmup, options);

    corpus::ErrorDetectionMetrics detection;
    size_t misaligned = 0;
    std::vector<std::pair<double, double>> spans;
    std::vector<Sums> requests;
    for (const core::FleetDocumentResult& doc : result.documents) {
      const auto& truth = fleet.articles[doc.index].ground_truth;
      if (!doc.status.ok()) {
        run->Fail("document " + documents[doc.index].name + ": " +
                  doc.status.ToString());
        if (timed) {
          run->attempted += truth.size();
          run->failed += truth.size();
        }
        continue;
      }
      const core::CheckReport& report = doc.report;
      if (report.verdicts.size() != truth.size()) ++misaligned;
      const size_t n = std::min(report.verdicts.size(), truth.size());
      for (size_t i = 0; i < n; ++i) {
        const bool flagged = report.verdicts[i].likely_erroneous;
        const bool erroneous = truth[i].is_erroneous;
        detection.true_positives += flagged && erroneous;
        detection.false_positives += flagged && !erroneous;
        detection.false_negatives += !flagged && erroneous;
      }
      detection.total_claims += n;
      Sums request = ReportSums(report, db::EvalStats{});
      request["core.check_s"] = report.total_seconds;
      request["core.fleet_create_est_s"] =
          create_total_s[fleet.articles[doc.index].dataset] /
          static_cast<double>(setups);
      Accumulate(&sums, request);
      const double end_us = drain_start_us + doc.latency_seconds * 1e6;
      spans.push_back({end_us - report.total_seconds * 1e6, end_us});
      requests.push_back(std::move(request));
      if (timed) run->Count(report);
      latencies_ms.push_back(doc.latency_seconds * 1e3);
    }
    if (detection.false_positives != 0 || detection.false_negatives != 0 ||
        misaligned != 0) {
      run->Fail("pass " + std::to_string(pass_no) + ": verdicts differ from "
                "ground truth (fp=" + std::to_string(detection.false_positives) +
                " fn=" + std::to_string(detection.false_negatives) +
                " misaligned=" + std::to_string(misaligned) + ")");
    }
    if (timed) run->detection = detection;  // every full drain scores alike

    const double worker_s =
        static_cast<double>(result.threads_used) * result.total_seconds;
    sums["core.fleet_worker_s"] = worker_s;
    sums["core.fleet_non_check_s"] = worker_s - sums["core.check_s"];

    if (run->traced()) {
      // Documents ran inside RunFleet; their check spans are placed from
      // the measured completion times on lanes after the main one.
      const std::vector<int> lanes =
          AssignLanes(spans, aggbench::kMainLane + 1);
      for (size_t i = 0; i < spans.size(); ++i) {
        std::string args = aggbench::JsonMember("request", run->next_request++);
        for (const auto& [k, v] : requests[i]) {
          if (v != 0) args += ", " + aggbench::JsonMember(k, v);
        }
        run->tracer.AddSpan("check", lanes[i], spans[i].first,
                            spans[i].second, std::move(args));
      }
      for (const corpus::FleetArticle& article : fleet.articles) {
        TimedDetectScore(run, article.document, &catalogs[article.dataset],
                         options.check, &sums);
      }
    }
    if (timed) {
      run->claims_per_s.push_back(static_cast<double>(result.claims_verified) /
                                  result.total_seconds);
      // A drain is one batch, so its latencies are summarized per drain.
      run->drain_p50_ms.push_back(aggbench::Percentile(latencies_ms, 0.5));
      run->drain_tail_ms.push_back(aggbench::Percentile(latencies_ms, kTail));
      run->latencies_ms.insert(run->latencies_ms.end(), latencies_ms.begin(),
                               latencies_ms.end());
      run->pass_sums.push_back(std::move(sums));
    }
    ++pass_no;
  });
}

// ---------------------------------------------------------------------------
// recheck_refresh: appends beside re-checks on 53 warm checkers.

void RunRecheckWorkload(Run* run) {
  Timer inputs_timer;
  std::vector<corpus::CorpusCase> cases = Table6Corpus(run->args, 20);
  run->inputs_s = inputs_timer.ElapsedSeconds();
  const core::CheckOptions options = Table6Options(1);
  const size_t n = cases.size();

  // Set-up: a checker per case, the state an always-on service holds
  // between data refreshes. It is timed kSetupRepeats times for a steady
  // median; the last set is kept.
  std::vector<core::AggChecker> checkers;
  checkers.reserve(n);
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    Span span(&run->tracer, "setup");
    Sums setup;
    checkers.clear();
    Timer timer;
    for (const corpus::CorpusCase& c : cases) {
      checkers.push_back(
          Must(core::AggChecker::Create(&c.database, options), "Create"));
    }
    setup["core.create_s"] = timer.ElapsedSeconds();
    run->setups_s.push_back(setup["core.create_s"]);
    if (run->traced()) {
      for (const corpus::CorpusCase& c : cases) {
        TimedBuild(run, c.database, options, &setup);
      }
    }
    run->setup_sums.push_back(std::move(setup));
  }

  // The warming Check of every case gives the first priors (untimed).
  std::vector<core::CheckReport> priors;
  std::vector<db::EvalStats> engine_stats;
  {
    Span span(&run->tracer, "warm");
    for (size_t i = 0; i < n; ++i) {
      priors.push_back(Must(checkers[i].Check(cases[i].document), "Check"));
      engine_stats.push_back(priors.back().eval_stats);
      ScoreCase(run, cases[i], priors.back());
    }
  }

  // One round: append to one table of one case, then ReCheck every case.
  // Adds the round's layer sums and verified claims; returns its wall time.
  size_t round = 0;
  auto refresh = [&](bool timed, Sums* sums, size_t* verified) {
    corpus::CorpusCase& target = cases[round % n];
    const std::string table =
        target.database.table((round / n) % target.database.num_tables())
            .name();
    Span round_span(&run->tracer, timed ? "round" : "warmup");
    round_span.Arg("round", static_cast<double>(round));
    round_span.Arg("case", target.name);

    Timer round_timer;
    {
      Span span(&run->tracer, "ingest");
      Timer timer;
      Status appended =
          corpus::AppendSyntheticRows(&target.database, table, kAppendRows);
      if (!appended.ok()) Die("append: " + appended.ToString());
      (*sums)["db.ingest_s"] += timer.ElapsedSeconds();
    }
    for (size_t i = 0; i < n; ++i) {
      Span doc_span(&run->tracer, "document");
      doc_span.Arg("request", run->next_request++);
      Span span(&run->tracer, "recheck");
      Timer timer;
      core::CheckReport report =
          Must(checkers[i].ReCheck(cases[i].document, priors[i]), "ReCheck");
      const double recheck_s = timer.ElapsedSeconds();
      Sums request = ReportSums(report, engine_stats[i]);
      if (run->traced()) AttachArgs(&span, request);
      request["core.recheck_s"] = recheck_s;
      Accumulate(sums, request);
      *verified += CountVerified(report);
      engine_stats[i] = report.eval_stats;
      if (timed) run->Count(report);
      priors[i] = std::move(report);
    }
    const double wall_s = round_timer.ElapsedSeconds();

    if (run->traced()) {
      // ReCheck re-detects every document and re-scores those it re-runs.
      for (size_t i = 0; i < n; ++i) {
        const bool rescored = priors[i].claims_rechecked > 0;
        TimedDetectScore(run, cases[i].document,
                         rescored ? &checkers[i].catalog() : nullptr, options,
                         sums);
      }
    }
    if (timed) run->latencies_ms.push_back(wall_s * 1e3);
    ++round;
    return wall_s;
  };

  for (size_t i = 0; i < (run->args.smoke ? 2u : 10u); ++i) {
    Sums ignored;
    size_t verified = 0;
    refresh(false, &ignored, &verified);
  }
  // A pass is n rounds, so every case is the mutated one once per pass and
  // per-pass throughput does not depend on which cases were mutated.
  Drive(run, 0, [&](bool) {
    Span pass_span(&run->tracer, "pass");
    Sums sums;
    size_t verified = 0;
    double wall_s = 0;
    for (size_t k = 0; k < n; ++k) wall_s += refresh(true, &sums, &verified);
    run->claims_per_s.push_back(static_cast<double>(verified) / wall_s);
    run->pass_sums.push_back(std::move(sums));
  });

  // Untimed: every incremental report must equal a cold Create + Check on
  // the current data (adopting the warm catalog, which Create pins).
  Span span(&run->tracer, "verify");
  for (size_t i = 0; i < n; ++i) {
    core::CheckOptions cold_options = options;
    cold_options.prebuilt_catalog = checkers[i].shared_catalog();
    core::AggChecker cold =
        Must(core::AggChecker::Create(&cases[i].database, cold_options),
             "Create");
    core::CheckReport report = Must(cold.Check(cases[i].document), "Check");
    if (core::FleetVerdictFingerprint(report) !=
        core::FleetVerdictFingerprint(priors[i])) {
      run->Fail("ReCheck of " + cases[i].name +
                " differs from a cold Create + Check");
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics.

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

Sums MeanOf(const std::vector<Sums>& all) {
  Sums mean;
  for (const Sums& s : all) Accumulate(&mean, s);
  for (auto& [k, v] : mean) v /= static_cast<double>(all.size());
  return mean;
}

aggbench::MetricSet EndToEndMetrics(const Run& run) {
  aggbench::MetricSet m;
  m.Add("claims_per_s", aggbench::Median(run.claims_per_s), "claims/s");
  const bool drains = !run.drain_p50_ms.empty();
  m.Add("latency_p50_ms",
        drains ? aggbench::Median(run.drain_p50_ms)
               : aggbench::Percentile(run.latencies_ms, 0.5),
        "ms");
  m.Add("latency_p90_ms",
        drains ? aggbench::Median(run.drain_tail_ms)
               : aggbench::Percentile(run.latencies_ms, kTail),
        "ms");
  m.Add("setup_s", aggbench::Median(run.setups_s), "s");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
  m.Add("error_f1", run.detection.F1(), "ratio");
  return m;
}

/// Per-layer metrics: sums per timed pass (per set-up for set-up-only
/// layers), averaged, so the layers of a pass add up like its wall time.
aggbench::MetricSet LayerMetrics(const Run& run) {
  Sums s = MeanOf(run.pass_sums);
  if (!run.setup_sums.empty()) Accumulate(&s, MeanOf(run.setup_sums));
  const double request_s = s["core.check_s"] + s["core.recheck_s"];
  s["model.self_s"] = request_s - s["claims.detect_s"] - s["claims.score_s"] -
                      s["db.query_s"];
  s["core.claims_reverified"] =
      s["core.claims_spliced"] + s["core.claims_rechecked"];
  s["core.request_s"] = request_s;

  aggbench::MetricSet m;
  auto add = [&](const char* name, const char* unit) {
    m.Add(name, s[name], unit);
  };
  auto ratio = [&](const char* name, const char* num, const char* den) {
    if (!m.AddRatio(name, num, den)) Die(std::string("ratio base missing: ") + name);
  };
  add("claims.detect_s", "s");
  add("claims.score_s", "s");
  add("fragments.build_s", "s");
  add("fragments.count", "count");
  add("core.create_s", "s");
  add("core.check_s", "s");
  add("core.recheck_s", "s");
  add("core.request_s", "s");
  add("core.claims_spliced", "count");
  add("core.claims_rechecked", "count");
  add("core.claims_reverified", "count");
  ratio("core.splice_ratio", "core.claims_spliced", "core.claims_reverified");
  add("core.fleet_worker_s", "s");
  add("core.fleet_non_check_s", "s");
  add("core.fleet_create_est_s", "s");
  ratio("core.fleet_create_share", "core.fleet_create_est_s",
        "core.fleet_worker_s");
  add("db.query_s", "s");
  add("db.plan_s", "s");
  add("db.execute_s", "s");
  add("db.fold_s", "s");
  add("db.answer_s", "s");
  add("db.join_s", "s");
  add("db.ingest_s", "s");
  add("db.cache_hits", "count");
  add("db.cache_lookups", "count");
  ratio("db.cache_hit_ratio", "db.cache_hits", "db.cache_lookups");
  add("db.plan_cache_hits", "count");
  add("db.plan_lookups", "count");
  ratio("db.plan_cache_hit_ratio", "db.plan_cache_hits", "db.plan_lookups");
  add("db.join_cache_hits", "count");
  add("db.join_lookups", "count");
  ratio("db.join_cache_hit_ratio", "db.join_cache_hits", "db.join_lookups");
  add("db.kernel_rows_skipped", "count");
  add("db.kernel_rows", "count");
  ratio("db.kernel_rows_skipped_ratio", "db.kernel_rows_skipped",
        "db.kernel_rows");
  add("db.rows_scanned", "count");
  add("db.cube_queries", "count");
  add("db.cache_invalidations", "count");
  add("model.self_s", "s");
  ratio("model.self_share", "model.self_s", "core.request_s");
  add("model.candidates", "count");
  add("model.queries_evaluated", "count");
  ratio("model.eval_ratio", "model.queries_evaluated", "model.candidates");
  add("model.em_iterations", "count");
  add("model.probe_s", "s");
  add("model.candidates_probed", "count");
  add("model.candidates_pruned", "count");
  ratio("model.pruned_ratio", "model.candidates_pruned",
        "model.candidates_probed");
  add("model.backfilled", "count");
  add("util.rows_charged", "count");
  return m;
}

void PrintSpread(const char* name, const std::vector<double>& values,
                 const char* unit) {
  const std::vector<double> q = aggbench::Quartiles(values);
  std::printf("  %-16s median %-12s q1 %-12s q3 %-12s %s over %zu passes\n",
              name, aggbench::FormatNumber(aggbench::Median(values)).c_str(),
              aggbench::FormatNumber(q[0]).c_str(),
              aggbench::FormatNumber(q[2]).c_str(), unit, values.size());
}

void PrintLayerTable(const aggbench::MetricSet& layers) {
  std::printf("per-layer (mean per timed pass):\n");
  for (const aggbench::Metric& m : layers.metrics()) {
    std::printf("  %-32s %-14s %s", m.name.c_str(),
                aggbench::FormatNumber(m.value).c_str(), m.unit.c_str());
    if (const auto* bases = layers.RatioBases(m.name)) {
      std::printf("  (%s / %s)", bases->first.c_str(), bases->second.c_str());
    }
    std::printf("\n");
  }
}

// ---------------------------------------------------------------------------
// Self-test of the statistics, metric and trace helpers.

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("self-test FAILED: %s\n", what);
      ++failures;
    }
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };

  std::vector<double> ramp;
  for (int i = 200; i >= 1; --i) ramp.push_back(i);  // unsorted on purpose
  expect(aggbench::Percentile(ramp, 0.5) == 100, "p50 of 1..200 is 100");
  expect(aggbench::Percentile(ramp, kTail) == 180, "p90 of 1..200 is 180");
  expect(aggbench::Percentile({7}, kTail) == 7, "p90 of one sample");
  expect(aggbench::PercentileRank(20, 0.95) == 19, "rank of p95 of 20");
  expect(aggbench::SamplesBeyond(kMinSamples, kTail) >= 10,
         "100 samples leave 10 beyond p90");
  expect(aggbench::SamplesBeyond(99, kTail) < 10,
         "99 samples leave fewer than 10 beyond p90");
  expect(aggbench::Median({3, 1, 2, 4}) == 2.5, "median of an even count");
  // Reference values from Python's statistics.quantiles(v, n=4).
  auto quartiles_are = [&](std::vector<double> v, double a, double b,
                           double c) {
    auto q = aggbench::Quartiles(std::move(v));
    return near(q[0], a) && near(q[1], b) && near(q[2], c);
  };
  expect(quartiles_are({1, 2}, 0.75, 1.5, 2.25), "quartiles of 1,2");
  expect(quartiles_are({5, 1, 4, 2, 3}, 1.5, 3.0, 4.5), "quartiles of 1..5");
  expect(quartiles_are({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25),
         "quartiles of 1..10");

  aggbench::MetricSet m;
  m.Add("x.hits", 3, "count");
  m.Add("x.lookups", 4, "count");
  m.Add("x.none", 0, "count");
  expect(m.AddRatio("x.hit_ratio", "x.hits", "x.lookups") &&
             m.Find("x.hit_ratio")->value == 0.75,
         "ratio is computed from its bases");
  expect(!m.AddRatio("x.orphan", "x.hits", "x.missing") &&
             m.Find("x.orphan") == nullptr,
         "a ratio without its base counts is refused");
  expect(m.AddRatio("x.empty", "x.hits", "x.none") &&
             m.Find("x.empty")->value == 0,
         "a ratio over an empty base is 0");
  for (const aggbench::Metric& metric : m.metrics()) {
    if (metric.unit != "ratio") continue;
    const auto* bases = m.RatioBases(metric.name);
    expect(bases != nullptr && m.Find(bases->first) != nullptr &&
               m.Find(bases->second) != nullptr,
           "every emitted ratio has its base counts");
  }
  expect(m.Json().find("\"x.hit_ratio\": {\"value\": 0.75, \"unit\": "
                       "\"ratio\"}") != std::string::npos,
         "metric JSON shape");
  for (double v : {0.1, 1.0 / 3.0, 12345.678901234567, 1e-300}) {
    expect(std::strtod(aggbench::FormatNumber(v).c_str(), nullptr) == v,
           "numbers print with all their digits");
  }

  expect(aggbench::JsonEscape("a\"b\\c\n\x01") == "a\\\"b\\\\c\\n\\u0001",
         "JSON escaping");
  aggbench::Tracer tracer(true);
  {
    Span outer(&tracer, "pass \"1\"");
    Span inner(&tracer, "check");
    inner.Arg("rows", 12);
    inner.Arg("case", "tab\there");
  }
  tracer.AddSpan("check", 2, 1.0, 2.0, "\"request\": 0");
  expect(aggbench::CheckBalanced(tracer.events()).empty(),
         "nested spans are balanced");
  const std::string json = tracer.Json();
  expect(json.find("\"name\": \"pass \\\"1\\\"\"") != std::string::npos,
         "span names are escaped");
  expect(json.find("\"args\": {\"rows\": 12, \"case\": \"tab\\there\"}") !=
             std::string::npos,
         "span args are escaped");
  auto events = tracer.events();
  events.pop_back();
  expect(!aggbench::CheckBalanced(events).empty(), "an open span is caught");
  std::swap(events[0], events[1]);
  expect(!aggbench::CheckBalanced(events).empty(),
         "a span ended out of order is caught");
  aggbench::Tracer off(false);
  { Span span(&off, "ignored"); }
  expect(off.events().empty(), "a disabled tracer records nothing");

  std::printf("self-test: %s\n", failures == 0 ? "OK" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (arg != "--smoke" && arg != "--self-test" && i + 1 < argc) {
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0)) return false;
    } else if (arg == "--trace") {
      args->trace_path = value;
    } else if (arg == "--smoke") {
      args->smoke = true;
    } else if (arg == "--self-test") {
      args->self_test = true;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: aggbench --workload=NAME [--seed=N] [--seconds=S] "
                 "[--trace=FILE] [--smoke] | --self-test\n");
    return 2;
  }
  if (args.self_test) return SelfTest();

  Run run(args);
  {
    Span workload_span(&run.tracer, args.workload);
    if (args.workload == "table6_cold") {
      RunTable6Workload(&run);
    } else if (args.workload == "fleet_shared") {
      RunFleetWorkload(&run);
    } else if (args.workload == "recheck_refresh") {
      RunRecheckWorkload(&run);
    } else {
      Die("unknown workload '" + args.workload + "'");
    }
  }

  const size_t n = run.latencies_ms.size();
  if (aggbench::SamplesBeyond(n, kTail) < 10) {
    run.Fail("only " + std::to_string(n) + " latency samples for p90");
  }
  if (run.traced()) {
    const std::string unbalanced = aggbench::CheckBalanced(run.tracer.events());
    if (!unbalanced.empty()) run.Fail("trace: " + unbalanced);
    std::ofstream out(args.trace_path);
    out << run.tracer.Json();
    if (!out.good()) run.Fail("cannot write trace " + args.trace_path);
  }

  const aggbench::MetricSet e2e = EndToEndMetrics(run);
  const aggbench::MetricSet layers = LayerMetrics(run);
  std::printf("workload %s seed %llu%s: %zu timed passes, samples=%zu, "
              "claims attempted %zu, failed %zu; inputs made in %.2f s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.smoke ? " (smoke)" : "", run.claims_per_s.size(), n,
              run.attempted, run.failed, run.inputs_s);
  PrintSpread("claims_per_s", run.claims_per_s, "claims/s");
  PrintSpread("setup_s", run.setups_s, "s");
  std::printf("  latency p50 %s ms, p90 %s ms (%zu samples beyond p90)\n",
              aggbench::FormatNumber(e2e.Find("latency_p50_ms")->value).c_str(),
              aggbench::FormatNumber(e2e.Find("latency_p90_ms")->value).c_str(),
              aggbench::SamplesBeyond(n, kTail));
  std::printf("  error detection tp=%zu fp=%zu fn=%zu\n",
              run.detection.true_positives, run.detection.false_positives,
              run.detection.false_negatives);
  std::printf("check_s_per_pass=%s\n",
              aggbench::FormatNumber(layers.Find("core.check_s")->value +
                                     layers.Find("core.recheck_s")->value)
                  .c_str());
  if (run.traced()) PrintLayerTable(layers);
  for (const std::string& f : run.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  if (run.num_failures > run.failures.size()) {
    std::printf("CHECK FAILED: %zu more\n", run.num_failures - run.failures.size());
  }
  const bool correct = run.num_failures == 0;
  std::printf("correctness: %s\n", correct ? "OK" : "FAILED");
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", run.attempted, run.failed,
              (run.traced() ? layers : e2e).Json().c_str());
  return correct ? 0 : 1;
}
