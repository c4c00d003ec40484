#include "core/fleet_scheduler.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "db/column_stats.h"
#include "db/table.h"
#include "fragments/catalog.h"
#include "util/fault_injection.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace aggchecker {
namespace core {

namespace {

/// Modeled scans per claim: candidates merge into a handful of cube scans
/// per claim per EM pass (see DESIGN.md §14 — constants only need to order
/// documents correctly, not predict wall time).
constexpr double kScansPerClaim = 3.0;
/// Weight of the cube-group term (groups are far cheaper than row scans).
constexpr double kGroupCostWeight = 0.5;

using SharedCatalog = std::shared_ptr<const fragments::FragmentCatalog>;

/// Runs one document under its slice and writes its result slot. `out`
/// slots are distinct per document, so workers never share one. A non-null
/// `catalog` is the document's data-set catalog, adopted through
/// `prebuilt_catalog`; null leaves Create to build its own.
void RunDocument(const FleetDocument& doc, const CheckOptions& sliced,
                 SharedCatalog catalog, FleetDocumentResult* out) {
  CheckOptions options = sliced;
  if (catalog != nullptr) options.prebuilt_catalog = std::move(catalog);
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
/// documents; nested pools would oversubscribe and add nothing).
CheckOptions SliceOptions(const FleetOptions& options, size_t num_documents) {
  CheckOptions check = options.check;
  check.governor = SliceGovernorBudget(options.check.governor, num_documents);
  check.model.num_threads = 1;
  return check;
}

void FillThreadReport(FleetRunResult* result, size_t threads) {
  result->threads_used = threads;
  result->hardware_concurrency = ThreadPool::HardwareConcurrency();
  result->threads_oversubscribed =
      result->threads_used > result->hardware_concurrency;
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

double EstimateDocumentCost(const FleetDocument& doc, bool relation_warm) {
  if (doc.database == nullptr) return 1.0;
  const double rows =
      static_cast<double>(std::max<size_t>(doc.database->TotalRows(), 1));
  const double claims =
      static_cast<double>(std::max<size_t>(doc.num_claims_hint, 1));
  // Join materialization: one pass over the data, already paid when the
  // dataset's relation cache is warm from an earlier-scheduled document.
  const double join_cost = relation_warm ? 0.0 : rows;
  // Cube scans: claims share merged scans, but more claims mean more
  // distinct predicate-column sets and EM batches.
  const double scan_cost = claims * kScansPerClaim * rows;
  // Cube groups: each column's dictionary gives an exact per-dimension
  // cardinality, so the group estimate sums each column's distinct count.
  // Deterministic: the counts are a pure function of the data, and
  // scheduling forces the same lazy dictionary build the checker's cube
  // scans reuse. NULL buckets add one group per nullable column.
  double total_groups = 0.0;
  for (size_t t = 0; t < doc.database->num_tables(); ++t) {
    const db::Table& table = doc.database->table(t);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const db::ColumnStats stats = table.column(c).Stats();
      total_groups += static_cast<double>(stats.distinct) +
                      (stats.non_null < stats.rows ? 1.0 : 0.0);
    }
  }
  const double group_cost =
      kGroupCostWeight * claims * std::max(total_groups, 1.0);
  return join_cost + scan_cost + group_cost;
}

FleetRunResult RunFleet(const std::vector<FleetDocument>& documents,
                        const FleetOptions& options) {
  FleetRunResult result;
  result.documents.resize(documents.size());
  const size_t threads =
      options.num_threads == 0 ? ThreadPool::HardwareConcurrency()
                               : options.num_threads;
  FillThreadReport(&result, threads);
  if (documents.empty()) return result;

  const CheckOptions sliced = SliceOptions(options, documents.size());
  Timer fleet_timer;
  ThreadPool pool(threads);

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

  // Scheduler state. Pops are serialized and greedy: each pop takes the
  // best benefit/cost over the *remaining* documents under the warmth known
  // at that instant, and warmth only changes inside the same critical
  // section — so the schedule order is a pure function of the input,
  // whatever the thread count or timing.
  std::mutex mu;
  std::vector<char> pending(documents.size(), 1);
  size_t remaining = documents.size();
  std::set<const db::Database*> warm;
  size_t next_position = 0;

  auto drain_one = [&]() {
    size_t pick = documents.size();
    double pick_cost = 0;
    size_t position = 0;
    Status pop_status;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (remaining == 0) return;
      double best_priority = -1.0;
      for (size_t i = 0; i < documents.size(); ++i) {
        if (!pending[i]) continue;
        const bool is_warm = warm.count(documents[i].database) > 0;
        const double cost = EstimateDocumentCost(documents[i], is_warm);
        const double benefit = static_cast<double>(
            std::max<size_t>(documents[i].num_claims_hint, 1));
        const double priority = benefit / cost;
        if (priority > best_priority) {  // ties break on lowest index
          best_priority = priority;
          pick = i;
          pick_cost = cost;
        }
      }
      pending[pick] = 0;
      --remaining;
      position = next_position++;
      // By the time anything scheduled after this pop runs, this document
      // will have built (or be building) its dataset's joins.
      warm.insert(documents[pick].database);
      // Chaos hook: a pop fault quarantines the popped document alone —
      // the slot records the injected error and the queue keeps draining.
      AGG_FAULT_POINT_STATUS("fleet.schedule.pop", pop_status);
    }

    FleetDocumentResult& out = result.documents[pick];
    out.index = pick;
    out.cost_estimate = pick_cost;
    out.schedule_position = position;
    // A pop fault fails this document alone; a failed catalog build fails
    // every document on its data set. Either way the document is not run.
    const size_t dataset = dataset_of[pick];
    const Status& skip =
        pop_status.ok() ? catalog_status[dataset] : pop_status;
    if (!skip.ok()) {
      out.status = skip;
      out.latency_seconds = fleet_timer.ElapsedSeconds();
      return;
    }
    RunDocument(documents[pick], sliced, catalogs[dataset], &out);
    out.latency_seconds = fleet_timer.ElapsedSeconds();
  };

  // A one-thread pool runs every region inline, in index order.
  pool.ParallelFor(0, documents.size(), [&](size_t) { drain_one(); });

  result.total_seconds = fleet_timer.ElapsedSeconds();
  Aggregate(&result);
  return result;
}

FleetRunResult RunFleetSequential(
    const std::vector<FleetDocument>& documents,
    const FleetOptions& options) {
  FleetRunResult result;
  result.documents.resize(documents.size());
  FillThreadReport(&result, 1);
  if (documents.empty()) return result;

  const CheckOptions sliced = SliceOptions(options, documents.size());
  Timer fleet_timer;
  std::set<const db::Database*> warm;
  for (size_t i = 0; i < documents.size(); ++i) {
    FleetDocumentResult& out = result.documents[i];
    out.index = i;
    out.schedule_position = i;
    out.cost_estimate = EstimateDocumentCost(
        documents[i], warm.count(documents[i].database) > 0);
    warm.insert(documents[i].database);
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
