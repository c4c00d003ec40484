#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/aggchecker.h"
#include "db/database.h"
#include "text/document.h"
#include "util/resource_governor.h"
#include "util/status.h"

namespace aggchecker {
namespace core {

/// \brief One unit of fleet work: a document's claim batch over a (possibly
/// shared) dataset. A drain never owns these — the caller keeps databases
/// and documents alive and address-stable for the whole run.
struct FleetDocument {
  std::string name;
  const db::Database* database = nullptr;
  const text::TextDocument* document = nullptr;
};

/// \brief Fleet-run configuration.
///
/// `check.governor` holds the GLOBAL fleet budget. The scheduler never
/// shares one tripping governor across documents — that would make each
/// document's verdicts depend on scheduling interleaving. Instead the
/// global budget is partitioned into fair, deterministic per-document
/// slices (SliceGovernorBudget): row/group/memory budgets divide evenly
/// across documents, the wall-clock deadline applies per document from its
/// own start (queue wait never counts against a document's budget). The
/// fleet-wide spend is bounded by the sum of slices, every document gets
/// the same slice regardless of queue position (the fairness invariant),
/// and per-document verdicts are bit-identical to a one-at-a-time run of
/// the same slice, for any thread count.
///
/// `check.catalog` configures the one fragment catalog RunFleet builds per
/// data set and the fresh one RunFleetSequential builds per document;
/// `check.prebuilt_catalog` is ignored by both drains, because one catalog
/// cannot serve several data sets.
struct FleetOptions {
  CheckOptions check;
  /// Documents checked concurrently (each document runs serially inside —
  /// parallelism is across documents). 0 = hardware concurrency.
  size_t num_threads = 1;
};

/// \brief Outcome of one document's run.
struct FleetDocumentResult {
  size_t index = 0;  ///< position in the input vector
  /// Non-OK when the document never produced a report: its data set's
  /// catalog build failed (every document on that data set carries the
  /// same status and none of them runs), checker creation failed, the
  /// run-level retry gave up, or an injected `fleet.schedule.pop` fault
  /// quarantined the document at dispatch.
  Status status;
  CheckReport report;
  double latency_seconds = 0;  ///< fleet start -> document completion
};

/// \brief Aggregated fleet outcome. `documents` is in input order.
struct FleetRunResult {
  std::vector<FleetDocumentResult> documents;
  double total_seconds = 0;
  size_t claims_total = 0;     ///< verdicts across all documents
  size_t claims_verified = 0;  ///< full (non-partial) verdicts
  size_t claims_partial = 0;   ///< cut short by a budget slice
  size_t documents_failed = 0;     ///< non-OK status (quarantined alone)
  size_t documents_exhausted = 0;  ///< governor slice tripped
  /// Charge totals summed over per-document governors — the fleet-budget
  /// ledger. Deterministic across thread counts.
  GovernorUsage usage;
  /// Verified-claims-per-second over the whole run.
  double throughput() const {
    return total_seconds > 0 ? static_cast<double>(claims_verified) /
                                   total_seconds
                             : 0.0;
  }
  /// Worker breadth actually used (0 requested = hardware concurrency).
  size_t threads_used = 1;
};

/// Fair per-document slice of the global budget: countable budgets divide
/// by `num_documents` (never below 1 once limited), the deadline passes
/// through per document. Deterministic — slices depend only on the global
/// limits and the document count, never on when a document runs.
GovernorLimits SliceGovernorBudget(const GovernorLimits& global,
                                   size_t num_documents);

/// \brief Drains the fleet through a worker pool.
///
/// The drain starts by building one fragment catalog per distinct data set
/// on the pool, inside the fleet timer (DESIGN.md §14, "One catalog per
/// data set"). Documents then start in input order, as in
/// RunFleetSequential. Each document gets its own checker adopting its data
/// set's catalog and runs a full Check under its own budget slice. An
/// injected `fleet.schedule.pop` fault quarantines that document alone; a
/// failed catalog build fails the documents of its data set alone; the
/// drain goes on either way.
FleetRunResult RunFleet(const std::vector<FleetDocument>& documents,
                        const FleetOptions& options);

/// One-at-a-time reference: the same budget slices, input order, no pool,
/// and a fresh Create (own catalog) per document. RunFleet must be
/// bit-identical to this per document.
FleetRunResult RunFleetSequential(const std::vector<FleetDocument>& documents,
                                  const FleetOptions& options);

/// \brief Canonical byte rendering of the verdict surface of one document
/// report — what fleet-vs-sequential bit-identity is asserted over (exact
/// hexfloat probabilities/results; wall-clock stats excluded).
std::string FleetVerdictFingerprint(const CheckReport& report);

}  // namespace core
}  // namespace aggchecker
