#include "core/aggchecker.h"

#include "util/fault_injection.h"
#include "util/timer.h"

namespace aggchecker {
namespace core {
namespace {

/// Assembles per-claim verdicts from a translation result.
std::vector<ClaimVerdict> AssembleVerdicts(
    const std::vector<claims::Claim>& detected,
    const model::TranslationResult& translation, size_t top_k) {
  std::vector<ClaimVerdict> verdicts;
  verdicts.reserve(detected.size());
  for (size_t i = 0; i < detected.size(); ++i) {
    ClaimVerdict verdict;
    verdict.claim = detected[i];
    const model::ClaimDistribution& dist = translation.distributions[i];
    verdict.total_candidates = dist.total_candidates;
    for (const auto& cand : dist.ranked) {
      if (cand.matches) verdict.correctness_probability += cand.probability;
    }
    verdict.partial =
        i < translation.partial.size() && translation.partial[i];
    if (i < translation.recovery.size()) {
      verdict.recovery = translation.recovery[i];
    }
    // A partial claim is "gave up", never "wrong": the budget ran out
    // before its candidates could be evaluated, so a non-matching (or
    // missing) top candidate is not evidence of an error.
    verdict.likely_erroneous =
        !verdict.partial &&
        (dist.ranked.empty() || !dist.ranked[0].matches);
    size_t keep = std::min(top_k, dist.ranked.size());
    verdict.top_queries.assign(dist.ranked.begin(),
                               dist.ranked.begin() + keep);
    verdicts.push_back(std::move(verdict));
  }
  return verdicts;
}

}  // namespace

Result<AggChecker> AggChecker::Create(const db::Database* db,
                                      CheckOptions options) {
  if (db == nullptr || db->num_tables() == 0) {
    return Status::InvalidArgument("AggChecker needs a non-empty database");
  }
  AggChecker checker(db, std::move(options));
  if (checker.options_.prebuilt_catalog != nullptr) {
    // Snapshot path: adopt the restored catalog instead of re-generating
    // fragments and re-indexing keywords (the dominant cold-start cost).
    checker.catalog_ = checker.options_.prebuilt_catalog;
  } else {
    auto catalog = fragments::FragmentCatalog::Build(*db,
                                                     checker.options_.catalog);
    if (!catalog.ok()) return catalog.status();
    checker.catalog_ = std::make_shared<const fragments::FragmentCatalog>(
        std::move(*catalog));
  }
  checker.engine_ =
      std::make_shared<db::EvalEngine>(db, checker.options_.strategy);
  checker.engine_->SetCubeExecMode(checker.options_.cube_exec);
  checker.engine_->SetRecovery(checker.options_.recovery);
  // num_threads == 1 keeps the engine pool-free (the exact serial path);
  // 0 sizes the pool to the hardware. Results are identical either way.
  if (checker.options_.model.num_threads != 1) {
    checker.pool_ =
        std::make_shared<ThreadPool>(checker.options_.model.num_threads);
    checker.engine_->SetThreadPool(checker.pool_.get());
  }
  return checker;
}

namespace {

/// Detaches a run-scoped governor from the (longer-lived) engine on every
/// exit path, so the engine never holds a dangling pointer.
class GovernorScope {
 public:
  GovernorScope(db::EvalEngine* engine, const ResourceGovernor* governor)
      : engine_(engine) {
    engine_->SetGovernor(governor);
  }
  ~GovernorScope() { engine_->SetGovernor(nullptr); }
  GovernorScope(const GovernorScope&) = delete;
  GovernorScope& operator=(const GovernorScope&) = delete;

 private:
  db::EvalEngine* engine_;
};

}  // namespace

Result<CheckReport> AggChecker::Check(const text::TextDocument& doc) {
  AGG_FAULT_POINT("check.run");
  // Claim detection (§3); everything downstream of the detected list is
  // the shared pipeline in CheckDetected.
  claims::ClaimDetector detector(options_.detector);
  return CheckDetected(doc, detector.Detect(doc), nullptr);
}

Result<CheckReport> AggChecker::CheckDetected(
    const text::TextDocument& doc, const std::vector<claims::Claim>& detected,
    const std::vector<std::optional<db::SimpleAggregateQuery>>* pinned) {
  Timer timer;
  CheckReport report;

  // Per-run resource governor: the deadline clock starts here and every
  // evaluation below (naive scans, cubes, EM) charges it via the engine.
  ResourceGovernor governor(options_.governor);
  GovernorScope governor_scope(engine_.get(), &governor);

  // Keyword matching (Algorithm 1).
  claims::KeywordExtractor extractor(options_.context);
  claims::RelevanceScorer scorer(catalog_.get(), extractor,
                                 options_.model.lucene_hits);
  std::vector<claims::ClaimRelevance> relevance =
      scorer.ScoreAll(doc, detected);

  // EM translation with candidate evaluations (Algorithms 3 and 4).
  // Per-query faults are healed or quarantined by the engine's recovery
  // pass; what surfaces here are run-level faults with no owning query,
  // retried while transient. Engine caches persist across attempts (failed
  // scans are never cached, so re-runs are safe). Every reported candidate
  // must show a real result, so the top-k backfill covers the report depth.
  model::Translator translator(db_, catalog_.get(), options_.model);
  auto translate = [&] {
    return translator.Translate(detected, relevance, engine_.get(), pinned,
                                options_.report_top_k);
  };
  const uint32_t max_attempts =
      options_.recovery.enabled ? options_.recovery.retry.max_attempts : 1;
  model::TranslationResult translation = translate();
  while (translation.status.IsTransient() &&
         report.run_attempts < max_attempts) {
    SleepForBackoff(options_.recovery.retry, report.run_attempts++);
    translation = translate();
  }
  if (!translation.status.ok()) return translation.status;

  report.verdicts =
      AssembleVerdicts(detected, translation, options_.report_top_k);

  // Stamp each verdict's dependency versions: the (table, version) pairs
  // ReCheck compares against the live database to decide splice vs re-check.
  for (size_t i = 0; i < report.verdicts.size() &&
                     i < translation.dependency_tables.size();
       ++i) {
    auto& deps = report.verdicts[i].dependencies;
    deps.reserve(translation.dependency_tables[i].size());
    for (const std::string& table : translation.dependency_tables[i]) {
      deps.emplace_back(table, db_->TableVersion(table));
    }
  }

  report.eval_stats = engine_->stats();
  report.probe_stats = translation.probe_stats;
  report.em_iterations = translation.em_iterations;
  report.total_candidates = translation.total_candidates;
  report.queries_evaluated = translation.queries_evaluated;
  report.governor_usage = governor.usage();
  report.total_seconds = timer.ElapsedSeconds();
  return report;
}

Result<CheckReport> AggChecker::ReCheck(const text::TextDocument& doc,
                                        const CheckReport& prior) {
  Timer timer;

  // Re-detect and align against the prior report. Detection is pure text
  // processing (no data reads), so a mismatch means the document itself
  // changed — incremental accounting is meaningless then and the whole
  // run falls back to a from-scratch Check.
  claims::ClaimDetector detector(options_.detector);
  std::vector<claims::Claim> detected = detector.Detect(doc);
  bool aligned = detected.size() == prior.verdicts.size();
  for (size_t i = 0; aligned && i < detected.size(); ++i) {
    const claims::Claim& was = prior.verdicts[i].claim;
    aligned = detected[i].id == was.id &&
              detected[i].claimed_value() == was.claimed_value();
  }
  if (!aligned) return Check(doc);

  const size_t n = detected.size();

  // The prior report still stands iff no claim's dependency table moved
  // past the version stamped at check time. Claims with no dependencies
  // read no table and splice forever.
  bool changed = false;
  for (size_t i = 0; i < n && !changed; ++i) {
    for (const auto& dep : prior.verdicts[i].dependencies) {
      if (db_->TableVersion(dep.first) != dep.second) {
        changed = true;
        break;
      }
    }
    if (!changed) {
      // Chaos hook: a faulted splice degrades to a full re-evaluation —
      // correctness never depends on splicing working.
      Status splice_status = Status::OK();
      AGG_FAULT_POINT_STATUS("eval.recheck.splice", splice_status);
      if (!splice_status.ok()) changed = true;
    }
  }

  if (!changed) {
    // Nothing a changed table can reach: the entire prior report is still
    // the answer. No evaluation, no governor, no translation.
    CheckReport report;
    report.verdicts = prior.verdicts;
    report.em_iterations = prior.em_iterations;
    report.total_candidates = prior.total_candidates;
    report.queries_evaluated = prior.queries_evaluated;
    report.governor_usage = prior.governor_usage;
    report.eval_stats = engine_->stats();
    report.claims_spliced = n;
    report.total_seconds = timer.ElapsedSeconds();
    return report;
  }

  // Some claim reads a bumped table. Learned priors tie every claim's
  // distribution to every other claim's evaluations, and a shared budget
  // means the evaluated set itself shapes which claims go partial, so the
  // whole document re-runs — the speedup comes from the version sweep
  // keeping every cube over untouched tables warm (with its governor
  // charges replayed for budget parity).
  auto report = CheckDetected(doc, detected, nullptr);
  if (report.ok()) report->claims_rechecked = n;
  return report;
}

}  // namespace core
}  // namespace aggchecker
