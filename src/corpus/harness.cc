#include "corpus/harness.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <optional>

#include "db/relation_cache.h"
#include "util/timer.h"

namespace aggchecker {
namespace corpus {

CorpusRunResult RunOnCorpus(const std::vector<CorpusCase>& corpus,
                            core::CheckOptions options) {
  return RunOnCorpus(corpus, std::move(options), SnapshotRunOptions{},
                     nullptr);
}

Status AppendSyntheticRows(db::Database* db, const std::string& table,
                           size_t num_rows) {
  const db::Table* target = db->FindTable(table);
  if (target == nullptr) {
    return Status::NotFound("AppendSyntheticRows: no table " + table);
  }
  const size_t old_rows = target->num_rows();
  std::vector<std::vector<db::Value>> rows;
  rows.reserve(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<db::Value> row;
    row.reserve(target->num_columns());
    for (size_t c = 0; c < target->num_columns(); ++c) {
      const db::Column& col = target->column(c);
      if (old_rows == 0) {
        switch (col.type()) {
          case db::ValueType::kLong:
            row.push_back(db::Value(static_cast<int64_t>(r)));
            break;
          case db::ValueType::kDouble:
            row.push_back(db::Value(static_cast<double>(r)));
            break;
          default:
            row.push_back(db::Value("row" + std::to_string(r)));
            break;
        }
        continue;
      }
      const db::Value& src = col.values()[r % old_rows];
      if (src.is_null()) {
        row.push_back(db::Value::Null());
      } else if (src.type() == db::ValueType::kLong) {
        row.push_back(db::Value(src.AsLong() + 1));
      } else if (src.type() == db::ValueType::kDouble) {
        row.push_back(db::Value(src.AsDoubleExact() + 0.5));
      } else {
        row.push_back(src);
      }
    }
    rows.push_back(std::move(row));
  }
  return db->AppendRows(table, std::move(rows));
}

std::string SnapshotPathForCase(const std::string& dir,
                                const std::string& case_name) {
  std::string safe;
  safe.reserve(case_name.size());
  for (char c : case_name) {
    safe.push_back(std::isalnum(static_cast<unsigned char>(c)) ||
                           c == '-' || c == '_'
                       ? c
                       : '_');
  }
  return dir + "/" + safe + ".snap";
}

CorpusRunResult RunOnCorpus(const std::vector<CorpusCase>& corpus,
                            core::CheckOptions options,
                            const SnapshotRunOptions& snapshot,
                            SnapshotRunStats* snapshot_stats) {
  options.report_top_k = std::max<size_t>(options.report_top_k, 20);
  CorpusRunResult result;
  for (const CorpusCase& test_case : corpus) {
    // Cold start per configuration: relations cached by a previous run over
    // the same corpus database must not bleed into this run's timings.
    test_case.database.relation_cache().Clear();

    // Snapshot load path: the case's database and catalog come out of the
    // mapped image; an unusable snapshot degrades to a rebuild with a
    // warning (snapshots are a cache, never a source of truth).
    std::optional<snapshot::LoadedSnapshot> loaded;
    const db::Database* database = &test_case.database;
    core::CheckOptions case_options = options;
    if (snapshot.load) {
      std::string path = SnapshotPathForCase(snapshot.dir, test_case.name);
      auto l = snapshot::LoadSnapshot(path);
      if (l.ok()) {
        loaded = std::move(*l);
        database = &loaded->database;
        case_options.prebuilt_catalog = loaded->catalog;
        if (snapshot_stats != nullptr) ++snapshot_stats->cases_loaded;
      } else {
        std::fprintf(stderr,
                     "warning: snapshot %s unusable (%s); rebuilding\n",
                     path.c_str(), l.status().message().c_str());
        if (snapshot_stats != nullptr) ++snapshot_stats->cases_rebuilt;
      }
    }

    auto checker = core::AggChecker::Create(database, case_options);
    if (!checker.ok()) continue;
    Timer timer;
    auto report = checker->Check(test_case.document);
    if (!report.ok()) continue;
    result.total_seconds += timer.ElapsedSeconds();
    if (snapshot.save) {
      snapshot::SnapshotStats write_stats;
      Status saved = snapshot::WriteSnapshot(
          SnapshotPathForCase(snapshot.dir, test_case.name),
          checker->database(), &checker->catalog(), &write_stats);
      if (!saved.ok()) {
        std::fprintf(stderr, "warning: snapshot save failed: %s\n",
                     saved.message().c_str());
      } else if (snapshot_stats != nullptr) {
        ++snapshot_stats->cases_saved;
        snapshot_stats->snapshot_bytes += write_stats.file_bytes;
      }
    }
    result.query_seconds += report->eval_stats.query_seconds;
    result.queries_evaluated += report->queries_evaluated;
    result.cube_queries += report->eval_stats.cube_queries;
    result.cache_hits += report->eval_stats.cache_hits;
    result.joins_built += report->eval_stats.joins_built;
    result.join_cache_hits += report->eval_stats.join_cache_hits;
    result.join_seconds += report->eval_stats.join_seconds;
    result.plan_seconds += report->eval_stats.plan_seconds;
    result.execute_seconds += report->eval_stats.execute_seconds;
    result.fold_seconds += report->eval_stats.fold_seconds;
    result.answer_seconds += report->eval_stats.answer_seconds;
    result.plans_built += report->eval_stats.plans_built;
    result.plan_cache_hits += report->eval_stats.plan_cache_hits;
    result.num_partial += report->NumPartial();
    result.cases_exhausted += report->governor_usage.exhausted ? 1 : 0;
    result.recovery_retries += report->eval_stats.recovery_retries;
    result.ladder_descents += report->eval_stats.ladder_descents;
    result.queries_recovered += report->eval_stats.queries_recovered;
    result.queries_quarantined += report->eval_stats.queries_quarantined;
    result.claims_recovered += report->NumRecovered();
    result.claims_quarantined += report->NumQuarantined();
    result.detection.Merge(ScoreErrorDetection(test_case, *report));
    result.coverage.Merge(ScoreCoverage(test_case, *report, 20));
    result.reports.push_back(std::move(*report));
  }
  return result;
}

std::vector<core::FleetDocument> FleetDocuments(const FleetCorpus& corpus) {
  std::vector<core::FleetDocument> documents;
  documents.reserve(corpus.articles.size());
  for (const FleetArticle& article : corpus.articles) {
    core::FleetDocument doc;
    doc.name = article.name;
    doc.database = corpus.datasets[article.dataset].get();
    doc.document = &article.document;
    documents.push_back(std::move(doc));
  }
  return documents;
}

FleetHarnessResult RunOnFleet(const FleetCorpus& corpus,
                              const core::FleetOptions& options) {
  FleetHarnessResult result;
  result.run = core::RunFleet(FleetDocuments(corpus), options);
  for (const core::FleetDocumentResult& doc : result.run.documents) {
    if (!doc.status.ok()) continue;  // failed documents carry no verdicts
    const FleetArticle& article = corpus.articles[doc.index];
    if (doc.report.verdicts.size() != article.ground_truth.size()) {
      ++result.documents_misaligned;
    }
    ErrorDetectionMetrics m;
    size_t n = std::min(doc.report.verdicts.size(),
                        article.ground_truth.size());
    m.total_claims = n;
    for (size_t i = 0; i < n; ++i) {
      bool flagged = doc.report.verdicts[i].likely_erroneous;
      bool erroneous = article.ground_truth[i].is_erroneous;
      if (flagged && erroneous) ++m.true_positives;
      if (flagged && !erroneous) ++m.false_positives;
      if (!flagged && erroneous) ++m.false_negatives;
    }
    result.detection.Merge(m);
  }
  return result;
}

}  // namespace corpus
}  // namespace aggchecker
