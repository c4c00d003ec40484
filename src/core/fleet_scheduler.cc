#include "core/fleet_scheduler.h"

#include <algorithm>
#include <map>
#include <memory>

#include "fragments/catalog.h"
#include "util/fault_injection.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace aggchecker {
namespace core {

namespace {

using SharedCatalog = std::shared_ptr<const fragments::FragmentCatalog>;

/// Runs one document under its slice and writes its result slot. `out`
/// slots are distinct per document, so workers never share one. A non-null
/// `catalog` is the document's data-set catalog, adopted through
/// `prebuilt_catalog`; null leaves Create to build its own.
void RunDocument(const FleetDocument& doc, const CheckOptions& sliced,
                 SharedCatalog catalog, FleetDocumentResult* out) {
  CheckOptions options = sliced;
  options.prebuilt_catalog = std::move(catalog);
  auto checker = AggChecker::Create(doc.database, std::move(options));
  if (!checker.ok()) {
    out->status = checker.status();
    return;
  }
  auto report = checker->Check(*doc.document);
  if (!report.ok()) {
    out->status = report.status();
    return;
  }
  out->report = std::move(*report);
}

/// Folds per-document outcomes into the fleet totals.
void Aggregate(FleetRunResult* result) {
  for (const FleetDocumentResult& doc : result->documents) {
    if (!doc.status.ok()) {
      ++result->documents_failed;
      continue;
    }
    for (const ClaimVerdict& v : doc.report.verdicts) {
      ++result->claims_total;
      if (v.partial) {
        ++result->claims_partial;
      } else {
        ++result->claims_verified;
      }
    }
    const GovernorUsage& usage = doc.report.governor_usage;
    result->usage.rows_charged += usage.rows_charged;
    result->usage.cube_groups_charged += usage.cube_groups_charged;
    result->usage.memory_bytes_charged += usage.memory_bytes_charged;
    result->usage.checkpoints += usage.checkpoints;
    if (usage.exhausted) {
      ++result->documents_exhausted;
      result->usage.exhausted = true;
      if (result->usage.stop_code == StatusCode::kOk) {
        result->usage.stop_code = usage.stop_code;
      }
    }
  }
}

/// The per-document CheckOptions: the global budget replaced by the fair
/// slice, document-internal parallelism off (the fleet parallelizes across
/// documents; nested pools would oversubscribe and add nothing), and no
/// caller catalog (one catalog cannot serve several data sets).
CheckOptions SliceOptions(const FleetOptions& options, size_t num_documents) {
  CheckOptions check = options.check;
  check.governor = SliceGovernorBudget(options.check.governor, num_documents);
  check.model.num_threads = 1;
  check.prebuilt_catalog = nullptr;
  return check;
}

}  // namespace

GovernorLimits SliceGovernorBudget(const GovernorLimits& global,
                                   size_t num_documents) {
  const uint64_t n = std::max<uint64_t>(num_documents, 1);
  GovernorLimits slice = global;
  if (global.max_row_scans > 0) {
    slice.max_row_scans = std::max<uint64_t>(1, global.max_row_scans / n);
  }
  if (global.max_cube_groups > 0) {
    slice.max_cube_groups = std::max<uint64_t>(1, global.max_cube_groups / n);
  }
  if (global.max_memory_bytes > 0) {
    slice.max_memory_bytes =
        std::max<uint64_t>(1, global.max_memory_bytes / n);
  }
  // deadline_seconds passes through: it is measured from each document's
  // own start, so queue wait never counts against a document's budget.
  return slice;
}

FleetRunResult RunFleet(const std::vector<FleetDocument>& documents,
                        const FleetOptions& options) {
  FleetRunResult result;
  result.documents.resize(documents.size());
  result.threads_used = options.num_threads == 0
                            ? ThreadPool::HardwareConcurrency()
                            : options.num_threads;
  if (documents.empty()) return result;

  const CheckOptions sliced = SliceOptions(options, documents.size());
  Timer fleet_timer;
  ThreadPool pool(result.threads_used);

  // One catalog per distinct data set, in first-appearance order: the
  // paper's per-data-set set-up (IndexFragments), paid once per drain and
  // inside the fleet timer. A catalog is a pure function of the data and
  // CatalogOptions and immutable once built, so every document on the data
  // set adopts it and still gets its own checker, engine, slice and report.
  std::vector<const db::Database*> datasets;
  std::vector<size_t> dataset_of(documents.size());
  {
    std::map<const db::Database*, size_t> first_seen;
    for (size_t i = 0; i < documents.size(); ++i) {
      auto [it, inserted] =
          first_seen.emplace(documents[i].database, datasets.size());
      if (inserted) datasets.push_back(documents[i].database);
      dataset_of[i] = it->second;
    }
  }
  std::vector<Status> catalog_status(datasets.size());
  std::vector<SharedCatalog> catalogs(datasets.size());
  pool.ParallelFor(0, datasets.size(), [&](size_t d) {
    // Create rejects a missing or empty database before building anything;
    // leave those to it so their documents fail exactly as they would alone.
    if (datasets[d] == nullptr || datasets[d]->num_tables() == 0) return;
    auto built =
        fragments::FragmentCatalog::Build(*datasets[d], options.check.catalog);
    if (!built.ok()) {
      catalog_status[d] = built.status();
      return;
    }
    catalogs[d] = std::make_shared<const fragments::FragmentCatalog>(
        std::move(*built));
  });

  // Documents start in input order: the pool hands out indices from one
  // counter, and a one-thread pool runs them inline, in index order.
  pool.ParallelFor(0, documents.size(), [&](size_t i) {
    FleetDocumentResult& out = result.documents[i];
    out.index = i;
    // Chaos hook: an injected `fleet.schedule.pop` fault quarantines this
    // document alone, a failed catalog build every document on its data
    // set. Either way the document is not run.
    Status pop_status;
    AGG_FAULT_POINT_STATUS("fleet.schedule.pop", pop_status);
    const Status& skip =
        pop_status.ok() ? catalog_status[dataset_of[i]] : pop_status;
    if (skip.ok()) {
      RunDocument(documents[i], sliced, catalogs[dataset_of[i]], &out);
    } else {
      out.status = skip;
    }
    out.latency_seconds = fleet_timer.ElapsedSeconds();
  });

  result.total_seconds = fleet_timer.ElapsedSeconds();
  Aggregate(&result);
  return result;
}

FleetRunResult RunFleetSequential(
    const std::vector<FleetDocument>& documents,
    const FleetOptions& options) {
  FleetRunResult result;
  result.documents.resize(documents.size());
  if (documents.empty()) return result;

  const CheckOptions sliced = SliceOptions(options, documents.size());
  Timer fleet_timer;
  for (size_t i = 0; i < documents.size(); ++i) {
    FleetDocumentResult& out = result.documents[i];
    out.index = i;
    RunDocument(documents[i], sliced, nullptr, &out);
    out.latency_seconds = fleet_timer.ElapsedSeconds();
  }
  result.total_seconds = fleet_timer.ElapsedSeconds();
  Aggregate(&result);
  return result;
}

std::string FleetVerdictFingerprint(const CheckReport& report) {
  std::string out;
  auto bits = [](double v) { return strings::Format("%a", v); };
  for (const auto& v : report.verdicts) {
    out += strings::Format(
        "claim %s cand=%zu correct=%s err=%d partial=%d\n",
        v.claim.id.c_str(), v.total_candidates,
        bits(v.correctness_probability).c_str(), v.likely_erroneous ? 1 : 0,
        v.partial ? 1 : 0);
    for (const auto& q : v.top_queries) {
      out += strings::Format(
          "  p=%s result=%s match=%d sql=%s\n", bits(q.probability).c_str(),
          q.result.has_value() ? bits(*q.result).c_str() : "none",
          q.matches ? 1 : 0, q.query.ToSql().c_str());
    }
  }
  return out;
}

}  // namespace core
}  // namespace aggchecker
