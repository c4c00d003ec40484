#include "corpus/fleet_generator.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "claims/claim_detector.h"
#include "core/aggchecker.h"
#include "db/executor.h"
#include "util/rounding.h"
#include "util/strings.h"

namespace aggchecker {
namespace corpus {
namespace {

/// Small enough to generate and check in milliseconds, large enough that
/// every aggregate family, predicate arity, and the error injector all get
/// exercised (~24 claims).
FleetSpec SmallSpec() {
  FleetSpec spec;
  spec.seed = 7;
  spec.num_articles = 6;
  spec.num_datasets = 2;
  spec.claims_per_article = 4;
  spec.num_dim_columns = 5;
  spec.num_measure_columns = 3;
  spec.rows_per_dataset = 400;
  spec.dim_cardinality = 8;
  spec.error_rate = 0.25;
  return spec;
}

/// Canonical byte rendering of everything the generator promises to be
/// deterministic: dataset schemas and cell values, article text, and
/// per-claim ground truth (exact hexfloat values). Two corpora from the
/// same spec must produce equal fingerprints; different seeds must not.
std::string FleetCorpusFingerprint(const FleetCorpus& corpus) {
  std::string out;
  auto bits = [](double v) { return strings::Format("%a", v); };
  for (size_t d = 0; d < corpus.datasets.size(); ++d) {
    const db::Database& db = *corpus.datasets[d];
    out += strings::Format("dataset %zu %s\n", d, db.name().c_str());
    for (size_t t = 0; t < db.num_tables(); ++t) {
      const db::Table& table = db.table(t);
      out += strings::Format("table %s rows=%zu\n", table.name().c_str(),
                             table.num_rows());
      for (size_t c = 0; c < table.num_columns(); ++c) {
        const db::Column& column = table.column(c);
        out += strings::Format("column %s type=%d\n", column.name().c_str(),
                               static_cast<int>(column.type()));
        for (const db::Value& v : column.values()) {
          out += v.ToString();
          out += '|';
        }
        out += '\n';
      }
    }
  }
  for (const FleetArticle& article : corpus.articles) {
    out += strings::Format("article %s dataset=%zu title=%s\n",
                           article.name.c_str(), article.dataset,
                           article.document.title().c_str());
    for (const auto& section : article.document.sections()) {
      out += strings::Format("section %s\n", section.headline.c_str());
    }
    for (const auto& sentence : article.document.sentences()) {
      out += sentence.text;
      out += '\n';
    }
    for (const GroundTruthClaim& g : article.ground_truth) {
      out += strings::Format(
          "claim %s claimed=%s true=%s err=%d\n",
          g.query.CanonicalKey().c_str(), bits(g.claimed_value).c_str(),
          bits(g.true_value).c_str(), g.is_erroneous ? 1 : 0);
    }
  }
  return out;
}

TEST(FleetGeneratorTest, SameSpecIsByteIdentical) {
  FleetSpec spec = SmallSpec();
  FleetCorpus a = GenerateFleet(spec);
  FleetCorpus b = GenerateFleet(spec);
  EXPECT_EQ(FleetCorpusFingerprint(a), FleetCorpusFingerprint(b));
}

TEST(FleetGeneratorTest, DifferentSeedsDiffer) {
  FleetSpec spec = SmallSpec();
  FleetCorpus a = GenerateFleet(spec);
  spec.seed = 8;
  FleetCorpus b = GenerateFleet(spec);
  EXPECT_NE(FleetCorpusFingerprint(a), FleetCorpusFingerprint(b));
}

TEST(FleetGeneratorTest, ShapeMatchesSpec) {
  FleetSpec spec = SmallSpec();
  FleetCorpus corpus = GenerateFleet(spec);
  ASSERT_EQ(corpus.datasets.size(), spec.num_datasets);
  ASSERT_EQ(corpus.articles.size(), spec.num_articles);
  EXPECT_EQ(corpus.articles_dropped, 0u);
  for (const auto& db : corpus.datasets) {
    ASSERT_EQ(db->num_tables(), 1u);
    // RowId key + dimensions + measures.
    EXPECT_EQ(db->table(0).num_columns(),
              1 + spec.num_dim_columns + spec.num_measure_columns);
    EXPECT_EQ(db->table(0).num_rows(), spec.rows_per_dataset);
    // Largest distinct count over the dimension (non-numeric) columns.
    size_t max_distinct = 0;
    for (size_t c = 0; c < db->table(0).num_columns(); ++c) {
      const db::Column& column = db->table(0).column(c);
      if (column.is_numeric()) continue;
      max_distinct = std::max(max_distinct, column.DistinctValues().size());
    }
    EXPECT_GE(max_distinct, 2u);
    EXPECT_LE(max_distinct, spec.dim_cardinality);
  }
  for (size_t i = 0; i < corpus.articles.size(); ++i) {
    const FleetArticle& article = corpus.articles[i];
    EXPECT_EQ(article.dataset, i % spec.num_datasets);  // round-robin
    EXPECT_GE(article.ground_truth.size(), 1u);
    EXPECT_LE(article.ground_truth.size(), spec.claims_per_article + 2);
  }
  EXPECT_GT(corpus.TotalClaims(), 0u);
}

TEST(FleetGeneratorTest, WideSchemaCarriesSixtyFourColumns) {
  FleetSpec spec = SmallSpec();
  spec.num_articles = 1;
  spec.num_datasets = 1;
  spec.num_dim_columns = 48;
  spec.num_measure_columns = 15;
  spec.rows_per_dataset = 200;
  FleetCorpus corpus = GenerateFleet(spec);
  ASSERT_EQ(corpus.datasets.size(), 1u);
  EXPECT_EQ(corpus.datasets[0]->table(0).num_columns(), 64u);
  EXPECT_GE(corpus.articles[0].ground_truth.size(), 1u);
}

/// The detector must see exactly the generated claims, in order — the
/// alignment contract the article-scale corpus upholds, now at fleet shape.
TEST(FleetGeneratorTest, DetectorAlignsWithGroundTruth) {
  FleetCorpus corpus = GenerateFleet(SmallSpec());
  claims::ClaimDetector detector;
  for (const FleetArticle& article : corpus.articles) {
    auto detected = detector.Detect(article.document);
    ASSERT_EQ(detected.size(), article.ground_truth.size()) << article.name;
    for (size_t i = 0; i < detected.size(); ++i) {
      EXPECT_NEAR(detected[i].claimed_value(),
                  article.ground_truth[i].claimed_value, 1e-9)
          << article.name << " claim " << i;
    }
  }
}

/// Ground-truth queries re-evaluate to their recorded true values, and the
/// erroneous flag agrees with the checker's rounding semantics.
TEST(FleetGeneratorTest, GroundTruthIsConsistent) {
  FleetCorpus corpus = GenerateFleet(SmallSpec());
  size_t erroneous = 0;
  for (const FleetArticle& article : corpus.articles) {
    const db::Database& db = *corpus.datasets[article.dataset];
    db::QueryExecutor exec(&db);
    for (size_t i = 0; i < article.ground_truth.size(); ++i) {
      const GroundTruthClaim& g = article.ground_truth[i];
      auto r = exec.Execute(g.query);
      ASSERT_TRUE(r.ok()) << article.name << " claim " << i << ": "
                          << r.status().ToString();
      ASSERT_TRUE(r->has_value()) << article.name << " claim " << i;
      EXPECT_NEAR(**r, g.true_value, 1e-6) << article.name << " claim " << i;
      EXPECT_EQ(g.is_erroneous,
                !rounding::RoundsTo(g.true_value, g.claimed_value))
          << article.name << " claim " << i;
      erroneous += g.is_erroneous ? 1 : 0;
    }
  }
  // At error_rate 0.25 over ~24 claims, at least one injected error must
  // survive rounding (the generator re-corrupts until the error is visible).
  EXPECT_GT(erroneous, 0u);
}

/// The full-pipeline contract behind the fleet-smoke gate: single-article
/// Check verdicts reproduce the by-construction ground truth exactly.
TEST(FleetGeneratorTest, CheckVerdictsMatchGroundTruth) {
  FleetCorpus corpus = GenerateFleet(SmallSpec());
  for (const FleetArticle& article : corpus.articles) {
    const db::Database& db = *corpus.datasets[article.dataset];
    auto checker = core::AggChecker::Create(&db);
    ASSERT_TRUE(checker.ok()) << checker.status().ToString();
    auto report = checker->Check(article.document);
    ASSERT_TRUE(report.ok()) << article.name << ": "
                             << report.status().ToString();
    ASSERT_EQ(report->verdicts.size(), article.ground_truth.size())
        << article.name;
    for (size_t i = 0; i < report->verdicts.size(); ++i) {
      EXPECT_EQ(report->verdicts[i].likely_erroneous,
                article.ground_truth[i].is_erroneous)
          << article.name << " claim " << i << " ("
          << article.document.sentence(report->verdicts[i].claim.sentence)
                 .text
          << ")";
    }
  }
}

}  // namespace
}  // namespace corpus
}  // namespace aggchecker
