#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "claims/claim_detector.h"
#include "claims/keyword_extractor.h"
#include "claims/relevance_scorer.h"
#include "db/eval_engine.h"
#include "fragments/catalog.h"
#include "model/translator.h"
#include "text/document.h"
#include "util/resource_governor.h"
#include "util/retry.h"
#include "util/status.h"

namespace aggchecker {
namespace core {

/// \brief All configuration of a checking run.
struct CheckOptions {
  claims::ClaimDetectorOptions detector;
  claims::KeywordContextOptions context;
  model::ModelOptions model;
  db::EvalStrategy strategy = db::EvalStrategy::kMergedCached;
  /// Cube materialization backend. The vectorized default and the scalar
  /// oracle produce bit-identical reports; the oracle exists for
  /// differential testing and as the perf-smoke baseline.
  db::CubeExecMode cube_exec = db::CubeExecMode::kVectorized;
  fragments::CatalogOptions catalog;
  /// Pre-built fragment catalog: when set, Create adopts it instead of
  /// building one from the database, skipping fragment generation and
  /// keyword indexing entirely. The snapshot load path (DESIGN.md §15)
  /// adopts a restored catalog, and RunFleet hands every document the one
  /// catalog it built for the document's data set (§14). It must have been
  /// built (or snapshot-restored) from the same database contents;
  /// `catalog` options are ignored. Reports are bit-identical to a fresh
  /// Build — the catalog's dense ids and index scores round-trip exactly,
  /// and an immutable catalog is safe to share across checkers and
  /// threads.
  std::shared_ptr<const fragments::FragmentCatalog> prebuilt_catalog;
  /// Candidates kept per claim in the report (the UI shows top-5/top-10).
  size_t report_top_k = 10;
  /// Per-run resource limits (wall-clock deadline, row-scan budget,
  /// cube-group budget). Defaults enforce nothing; with limits set, a run
  /// that exhausts them still completes, marking unfinished claims
  /// `partial` instead of erroneous (see DESIGN.md "Failure-handling
  /// contract").
  GovernorLimits governor;
  /// Self-healing layer (DESIGN.md §13), ON by default: transient faults
  /// retry with capped backoff, persistent faults in optimized paths
  /// re-run on the bit-identical reference configuration, and claims
  /// failing there too are quarantined as partial verdicts
  /// instead of aborting the run. Set `recovery.enabled = false` to get the
  /// fail-fast behavior differential tests rely on.
  RecoveryOptions recovery;
};

/// \brief The verdict for one claim: its ranked query candidates and the
/// erroneous-claim markup decision.
struct ClaimVerdict {
  claims::Claim claim;
  /// Top candidates (query + probability + evaluation result), best first.
  std::vector<model::RankedCandidate> top_queries;
  /// Size of the full candidate space this claim was translated against.
  size_t total_candidates = 0;
  /// Probability mass of candidates whose result matches the claim.
  double correctness_probability = 0.0;
  /// The claim is marked up when its most likely query does not evaluate
  /// (after rounding) to the claimed value.
  bool likely_erroneous = false;
  /// The user dismissed this detection as not-a-claim (spurious match);
  /// it carries no translation and is never marked up.
  bool dismissed = false;
  /// The resource budget ran out before this claim's candidates were fully
  /// evaluated. The verdict is best-effort: top_queries may be incomplete
  /// and the claim is never flagged erroneous ("gave up" ≠ "wrong").
  bool partial = false;
  /// The claim's trip through the self-healing layer: attempts, deepest
  /// fallback-ladder rung, and whether it was healed or quarantined
  /// (quarantined claims are also partial). All-defaults when evaluation
  /// never faulted.
  model::ClaimRecovery recovery;
  /// (lower-cased table, data version) of every base table this claim's
  /// candidate space can read — join closure included — stamped at check
  /// time. The invalidation key for incremental re-verification (DESIGN.md
  /// §16): ReCheck re-evaluates the claim iff some entry here no longer
  /// matches the database's current version.
  std::vector<std::pair<std::string, uint64_t>> dependencies;

  const model::RankedCandidate* best() const {
    return top_queries.empty() ? nullptr : &top_queries[0];
  }
};

/// \brief Summary of one checking run.
struct CheckReport {
  std::vector<ClaimVerdict> verdicts;
  db::EvalStats eval_stats;   ///< backend counters (cube queries, cache)
  double total_seconds = 0;   ///< end-to-end wall time
  int em_iterations = 0;
  size_t total_candidates = 0;
  size_t queries_evaluated = 0;
  /// Resource consumption of this run's governor (rows scanned, cube groups
  /// materialized, whether a limit tripped and which code stopped the run).
  /// Lets callers distinguish "verified clean" from "gave up on a budget".
  GovernorUsage governor_usage;
  /// Times the translation ran (1 = no run-level fault; >1 = a transient
  /// run-level fault was retried).
  uint32_t run_attempts = 1;
  /// Incremental re-verification accounting (DESIGN.md §16). A from-scratch
  /// Check leaves both zero. ReCheck counts every claim exactly once:
  /// spliced (verdict copied from the prior report because no dependency
  /// table changed) or rechecked (re-evaluated against the current data).
  size_t claims_spliced = 0;
  size_t claims_rechecked = 0;
  /// Verification-aware probe counters (DESIGN.md §17): candidates probed /
  /// pruned (by family), top-k results backfilled, and — in
  /// ModelOptions::probe_verify runs — conflicts between synthesized and
  /// real outcomes (must be 0). All zero unless the run uses the naive
  /// strategy with unlimited governor limits, the one configuration that
  /// probes.
  model::ProbeStats probe_stats;

  size_t NumFlagged() const {
    size_t n = 0;
    for (const auto& v : verdicts) n += v.likely_erroneous ? 1 : 0;
    return n;
  }

  /// Claims whose verification was cut short by the resource budget.
  size_t NumPartial() const {
    size_t n = 0;
    for (const auto& v : verdicts) n += v.partial ? 1 : 0;
    return n;
  }

  /// Claims that failed on every fallback-ladder rung (partial, isolated).
  size_t NumQuarantined() const {
    size_t n = 0;
    for (const auto& v : verdicts) n += v.recovery.quarantined ? 1 : 0;
    return n;
  }

  /// Claims the self-healing layer fully healed (faulted, then recovered).
  size_t NumRecovered() const {
    size_t n = 0;
    for (const auto& v : verdicts) n += v.recovery.recovered ? 1 : 0;
    return n;
  }
};

/// \brief The AggChecker: verifies text summaries of relational data sets.
///
/// Usage:
/// \code
///   auto checker = core::AggChecker::Create(&database, options);
///   auto report = checker->Check(document);
///   for (const auto& v : report->verdicts) { ... }
/// \endcode
///
/// One AggChecker instance per database; the fragment catalog is built (or
/// adopted, see CheckOptions::prebuilt_catalog) once at Create time and the
/// evaluation cache persists across Check calls on the same instance
/// (mirroring the per-data-set setup of §3).
class AggChecker {
 public:
  static Result<AggChecker> Create(const db::Database* db,
                                   CheckOptions options = {});

  /// Runs the full pipeline on a document: claim detection, keyword
  /// matching, EM translation, verdict assembly.
  Result<CheckReport> Check(const text::TextDocument& doc);

  /// Incrementally re-verifies `doc` against the current database state
  /// given a prior report from this instance (DESIGN.md §16). When no
  /// claim's stamped dependency-table version moved, the prior report is
  /// spliced whole; otherwise every claim is re-evaluated, against caches
  /// the version sweep has already narrowed to the touched tables. The
  /// returned report is bit-identical (FleetVerdictFingerprint) to a
  /// from-scratch Check on the current data at any thread count and under
  /// any governor budget. Falls back to a full Check when the detected
  /// claims no longer line up with `prior` (the document changed).
  Result<CheckReport> ReCheck(const text::TextDocument& doc,
                              const CheckReport& prior);

  const fragments::FragmentCatalog& catalog() const { return *catalog_; }
  /// The catalog as an adoptable handle: differential harnesses hand it to
  /// a second checker via CheckOptions::prebuilt_catalog so both compare
  /// reports over the identical fragment space (the catalog is built from
  /// the data at Create time and deliberately does NOT track ingestion —
  /// DESIGN.md §16 pins this down).
  std::shared_ptr<const fragments::FragmentCatalog> shared_catalog() const {
    return catalog_;
  }
  const CheckOptions& options() const { return options_; }
  db::EvalEngine& engine() { return *engine_; }
  const db::Database& database() const { return *db_; }

 private:
  AggChecker(const db::Database* db, CheckOptions options)
      : db_(db), options_(std::move(options)) {}

  friend class InteractiveSession;

  /// Check minus detection: scoring, translation with run-level retry,
  /// verdict assembly, and dependency stamping over an already-detected
  /// claim list. The one checking pipeline: Check, ReCheck, and
  /// InteractiveSession all funnel here. `pinned` (optional, one entry per
  /// claim) fixes user-confirmed translations, as in
  /// model::Translator::Translate.
  Result<CheckReport> CheckDetected(
      const text::TextDocument& doc, const std::vector<claims::Claim>& detected,
      const std::vector<std::optional<db::SimpleAggregateQuery>>* pinned);

  const db::Database* db_;
  CheckOptions options_;
  std::shared_ptr<const fragments::FragmentCatalog> catalog_;
  /// Worker pool sized by ModelOptions::num_threads, shared with the engine
  /// (and through it the translator) for the instance's lifetime. Null when
  /// num_threads == 1 — the fully serial path. Declared before engine_ so
  /// the engine (which holds a raw pointer to it) is destroyed first.
  std::shared_ptr<ThreadPool> pool_;
  std::shared_ptr<db::EvalEngine> engine_;
};

}  // namespace core
}  // namespace aggchecker
