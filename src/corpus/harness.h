#pragma once

#include <string>
#include <vector>

#include "core/aggchecker.h"
#include "core/fleet_scheduler.h"
#include "corpus/corpus_case.h"
#include "corpus/fleet_generator.h"
#include "corpus/metrics.h"
#include "snapshot/snapshot.h"

namespace aggchecker {
namespace corpus {

/// \brief Aggregated outcome of checking the whole corpus with one
/// configuration — the unit of work behind most benchmark tables.
struct CorpusRunResult {
  std::vector<core::CheckReport> reports;  ///< one per case, corpus order
  ErrorDetectionMetrics detection;
  CoverageMetrics coverage;
  double total_seconds = 0;   ///< wall time of all Check calls
  double query_seconds = 0;   ///< backend query time (EvalStats)
  size_t queries_evaluated = 0;
  size_t cube_queries = 0;
  size_t cache_hits = 0;
  size_t joins_built = 0;      ///< join materializations (EvalStats)
  size_t join_cache_hits = 0;  ///< joins served by the RelationCache
  double join_seconds = 0;     ///< wall time spent materializing joins
  /// Per-phase backend breakdown summed over cases (EvalStats).
  double plan_seconds = 0;
  double execute_seconds = 0;
  double fold_seconds = 0;
  double answer_seconds = 0;
  /// Plan-cache counters (merged strategies; zero under naive).
  size_t plans_built = 0;
  size_t plan_cache_hits = 0;
  size_t num_partial = 0;      ///< claims cut short by the resource governor
  size_t cases_exhausted = 0;  ///< cases whose governor tripped a limit
  /// Self-healing counters summed over cases (EvalStats / CheckReport;
  /// DESIGN.md §13). All zero on a fault-free corpus run.
  size_t recovery_retries = 0;     ///< same-rung retries after transients
  size_t ladder_descents = 0;      ///< fallback-ladder rungs engaged
  size_t queries_recovered = 0;    ///< hard-failed queries healed
  size_t queries_quarantined = 0;  ///< queries surrendered on every rung
  size_t claims_recovered = 0;     ///< claims fully healed by recovery
  size_t claims_quarantined = 0;   ///< claims degraded to quarantined partials

  CorpusRunResult() : coverage(20) {}
};

/// Runs the AggChecker with `options` on every case and aggregates metrics.
/// `options.report_top_k` is forced to at least 20 so top-k coverage up to
/// k=20 is measurable.
CorpusRunResult RunOnCorpus(const std::vector<CorpusCase>& corpus,
                            core::CheckOptions options);

/// \brief Deterministic ingestion driver for the incremental-recheck tests
/// and bench (DESIGN.md §16): synthesizes `num_rows` new rows for `table`
/// by cycling its existing cells — numeric cells nudged (+1 / +0.5) so
/// aggregates actually move — and appends them via Database::AppendRows,
/// bumping the table's data version. An empty table gets type-default rows.
Status AppendSyntheticRows(db::Database* db, const std::string& table,
                           size_t num_rows);

/// \brief Snapshot persistence wiring for corpus runs (DESIGN.md §15).
struct SnapshotRunOptions {
  std::string dir;    ///< directory holding one `<case>.snap` per case
  bool save = false;  ///< write each case's built state after checking it
  bool load = false;  ///< start each case from its snapshot when usable
};

/// \brief What the snapshot wiring actually did during a run.
struct SnapshotRunStats {
  size_t cases_loaded = 0;    ///< cases started from a usable snapshot
  size_t cases_rebuilt = 0;   ///< load requested but fell back to a rebuild
  size_t cases_saved = 0;     ///< snapshots written
  uint64_t snapshot_bytes = 0;  ///< total bytes of snapshots written
};

/// The `.snap` path for one case (name sanitized for the filesystem).
std::string SnapshotPathForCase(const std::string& dir,
                                const std::string& case_name);

/// RunOnCorpus with snapshot persistence: with `snapshot.load`, each case
/// starts from its mapped snapshot — database and catalog — and any
/// unusable snapshot (missing, corrupt, version-mismatched) degrades to a
/// full rebuild with a warning on stderr, never an error. Reports are
/// bit-identical either way (the snapshot differential tests enumerate
/// this). With `snapshot.save`, each case's fully built state is written
/// after its Check completes, outside `total_seconds`.
CorpusRunResult RunOnCorpus(const std::vector<CorpusCase>& corpus,
                            core::CheckOptions options,
                            const SnapshotRunOptions& snapshot,
                            SnapshotRunStats* snapshot_stats = nullptr);

/// \brief Accuracy of a fleet run against the generator's by-construction
/// ground truth.
struct FleetScore {
  /// Detection scored by position against each article's ground truth
  /// (the fleet generator emits one claim per sentence in detection order,
  /// the same alignment contract the article-scale corpus upholds).
  ErrorDetectionMetrics detection;
  /// Documents whose verdict count did not match their ground-truth claim
  /// count — an alignment bug, not a detection miss. Zero on a healthy run.
  size_t documents_misaligned = 0;
};

/// Adapts a generated fleet to fleet work items, one per article in corpus
/// order. The returned documents borrow the corpus' datasets and article
/// documents; the corpus must outlive any run over them.
std::vector<core::FleetDocument> FleetDocuments(const FleetCorpus& corpus);

/// Scores the verdicts of `run`, a RunFleet drain over FleetDocuments of
/// `corpus` (or a prefix of them), against the corpus' ground truth.
/// Documents that failed carry no verdicts and are skipped.
FleetScore ScoreFleet(const FleetCorpus& corpus,
                      const core::FleetRunResult& run);

}  // namespace corpus
}  // namespace aggchecker
