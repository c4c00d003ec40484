#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus/corpus_case.h"
#include "db/database.h"
#include "text/document.h"

namespace aggchecker {
namespace corpus {

/// \brief Parameters of a fleet-scale synthetic workload: thousands of
/// articles over a pool of scaled, wide, skewed datasets.
///
/// Where GeneratorOptions reproduces the paper's 53-article corpus shape,
/// FleetSpec targets the ROADMAP's "heavy traffic" regime: schemas up to
/// ~64 columns, high-cardinality Zipf-skewed dimensions, row counts 100 to
/// 1000 times the article-scale cases, and a known error-injection rate so
/// every generated claim carries a ground-truth verdict by construction.
/// Generation is deterministic in (spec, seed): the same spec produces a
/// byte-identical corpus — datasets, articles, and ground truth.
struct FleetSpec {
  uint64_t seed = 1;

  /// Articles in the workload. Articles are assigned to datasets
  /// round-robin, so multiple documents share each dataset, its fragment
  /// catalog and its relation cache in a fleet drain.
  size_t num_articles = 1000;
  size_t num_datasets = 8;

  /// Target claims per article; realized counts jitter by up to ±2 (never
  /// below 1) so documents differ in size.
  size_t claims_per_article = 6;

  /// Schema width: categorical dimension columns plus numeric measure
  /// columns (plus a RowId key). 48 + 15 + 1 = 64 columns at the maximum
  /// the tentpole targets.
  size_t num_dim_columns = 24;
  size_t num_measure_columns = 8;

  /// Rows per dataset. The article-scale generator draws 60-600 rows per
  /// case; the default here is ~100-800x that.
  size_t rows_per_dataset = 50000;

  /// Upper bound on per-dimension cardinality; each dimension draws its own
  /// cardinality in [2, dim_cardinality].
  size_t dim_cardinality = 64;

  /// Zipf exponent for dimension-value draws (0 = uniform). Skewed
  /// dimensions give the uneven cube-group sizes real data has.
  double zipf_skew = 1.1;

  /// Per-claim probability of injecting an error (the paper's corpus runs
  /// at ~12% erroneous claims). The realized erroneous flag is always
  /// recomputed under the checker's rounding semantics, so ground truth is
  /// exact regardless of how the corruption rounds.
  double error_rate = 0.12;
};

/// \brief One fleet article: a document plus per-claim ground truth, bound
/// to one of the corpus' shared datasets by index.
struct FleetArticle {
  std::string name;
  size_t dataset = 0;  ///< index into FleetCorpus::datasets
  text::TextDocument document;
  std::vector<GroundTruthClaim> ground_truth;

  size_t NumErroneous() const {
    size_t n = 0;
    for (const auto& g : ground_truth) n += g.is_erroneous ? 1 : 0;
    return n;
  }
};

/// \brief A generated fleet workload: shared datasets + articles over them.
struct FleetCorpus {
  /// Datasets are shared across articles and must stay address-stable while
  /// any fleet run references them (unique_ptr, not value, for that).
  std::vector<std::unique_ptr<db::Database>> datasets;
  std::vector<FleetArticle> articles;
  /// Articles dropped by an injected `fleet.generator.emit` fault. The
  /// generator skips the faulted article and keeps going (surviving
  /// articles are identical to their fault-free twins); zero in production.
  size_t articles_dropped = 0;

  size_t TotalClaims() const {
    size_t n = 0;
    for (const auto& a : articles) n += a.ground_truth.size();
    return n;
  }
};

/// Generates the workload. Deterministic in the spec (including seed);
/// see FleetCorpusFingerprint for the byte-identity contract tests assert.
FleetCorpus GenerateFleet(const FleetSpec& spec);

/// \brief Canonical byte rendering of everything the generator promises to
/// be deterministic: dataset schemas and cell values, article text, and
/// per-claim ground truth (exact hexfloat values). Two corpora from the
/// same spec must produce equal fingerprints; different seeds must not.
std::string FleetCorpusFingerprint(const FleetCorpus& corpus);

}  // namespace corpus
}  // namespace aggchecker
