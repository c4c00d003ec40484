#include "corpus/fleet_generator.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "core/aggchecker.h"
#include "corpus/claim_text.h"
#include "db/executor.h"
#include "db/relation_cache.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/rounding.h"
#include "util/strings.h"

namespace aggchecker {
namespace corpus {

namespace {

using claim_text::Corrupt;
using claim_text::Rendered;
using claim_text::RendersAsYear;
using claim_text::RenderValue;

// ---------------------------------------------------------------------------
// Synthetic vocabulary
// ---------------------------------------------------------------------------

/// Pronounceable CV-syllable word ("kavolu"), deterministic in the rng
/// stream. Synthetic words keep the fleet vocabulary collision-free: every
/// dimension value maps to exactly one (column, value) fragment, so keyword
/// evidence stays as sharp at 64 columns as the hand-built corpus is at 6.
std::string MakeWord(Rng* rng, size_t syllables = 3) {
  static const char kConsonants[] = "bdfgklmnprstvz";
  static const char kVowels[] = "aeiou";
  std::string w;
  for (size_t s = 0; s < syllables; ++s) {
    w += kConsonants[rng->NextBounded(sizeof(kConsonants) - 1)];
    w += kVowels[rng->NextBounded(sizeof(kVowels) - 1)];
  }
  return w;
}

/// A word not yet in `used` (vocabulary uniqueness is per dataset).
std::string FreshWord(Rng* rng, std::set<std::string>* used) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::string w = MakeWord(rng, attempt < 100 ? 3 : 4);
    if (used->insert(w).second) return w;
  }
  // 14^4 * 5^4 four-syllable combos make this unreachable.
  std::string w = MakeWord(rng, 5);
  used->insert(w);
  return w;
}

std::string Capitalize(std::string s) {
  if (!s.empty()) s[0] = static_cast<char>(std::toupper(s[0]));
  return s;
}

// ---------------------------------------------------------------------------
// Dataset synthesis
// ---------------------------------------------------------------------------

struct DimSpec {
  std::string column;            ///< capitalized column name
  std::string mention;           ///< lowercase word used in prose
  std::vector<std::string> values;
  std::vector<double> zipf_cdf;  ///< cumulative draw weights
};

struct MeasureSpec {
  std::string column;
  std::string mention;
  int64_t lo = 1, hi = 100;
};

struct DatasetShape {
  std::vector<DimSpec> dims;
  std::vector<MeasureSpec> measures;
};

/// Draws an index from a dimension's Zipf CDF.
size_t ZipfDraw(const DimSpec& dim, Rng* rng) {
  double u = rng->NextDouble() * dim.zipf_cdf.back();
  auto it = std::upper_bound(dim.zipf_cdf.begin(), dim.zipf_cdf.end(), u);
  size_t i = static_cast<size_t>(it - dim.zipf_cdf.begin());
  return std::min(i, dim.zipf_cdf.size() - 1);
}

/// Builds one scaled dataset ("facts" table) plus its shape description.
/// Deterministic in (spec.seed, dataset_index).
DatasetShape BuildDataset(const FleetSpec& spec, size_t dataset_index,
                          db::Database* out) {
  Rng rng(spec.seed * 7919 + dataset_index * 104729 + 29);
  std::set<std::string> used_words;
  DatasetShape shape;

  const size_t max_card = std::max<size_t>(spec.dim_cardinality, 2);
  for (size_t d = 0; d < spec.num_dim_columns; ++d) {
    DimSpec dim;
    dim.mention = FreshWord(&rng, &used_words);
    dim.column = Capitalize(dim.mention);
    const size_t card = 2 + rng.NextBounded(max_card - 1);
    double cum = 0;
    for (size_t v = 0; v < card; ++v) {
      dim.values.push_back(FreshWord(&rng, &used_words));
      cum += std::pow(static_cast<double>(v + 1), -spec.zipf_skew);
      dim.zipf_cdf.push_back(cum);
    }
    shape.dims.push_back(std::move(dim));
  }
  for (size_t m = 0; m < spec.num_measure_columns; ++m) {
    MeasureSpec measure;
    measure.mention = FreshWord(&rng, &used_words);
    measure.column = Capitalize(measure.mention);
    // Log-uniform magnitude so measures span counts-of-games to revenues.
    measure.hi = static_cast<int64_t>(
        std::llround(std::pow(10.0, 1.6 + 4.2 * rng.NextDouble())));
    measure.lo = std::max<int64_t>(1, measure.hi / 1000);
    shape.measures.push_back(std::move(measure));
  }

  db::Table t("facts");
  (void)t.AddColumn("RowId", db::ValueType::kLong);
  for (const auto& dim : shape.dims) {
    (void)t.AddColumn(dim.column, db::ValueType::kString);
  }
  for (const auto& measure : shape.measures) {
    (void)t.AddColumn(measure.column, db::ValueType::kLong);
  }
  for (size_t r = 0; r < spec.rows_per_dataset; ++r) {
    std::vector<db::Value> row;
    row.reserve(1 + shape.dims.size() + shape.measures.size());
    row.push_back(db::Value(static_cast<int64_t>(r + 1)));
    for (const auto& dim : shape.dims) {
      row.push_back(db::Value(dim.values[ZipfDraw(dim, &rng)]));
    }
    for (const auto& measure : shape.measures) {
      row.push_back(db::Value(rng.NextInt(measure.lo, measure.hi)));
    }
    (void)t.AddRow(std::move(row));
  }
  (void)out->AddTable(std::move(t));
  return shape;
}

// ---------------------------------------------------------------------------
// Claim and article synthesis
// ---------------------------------------------------------------------------

struct FleetClaim {
  db::SimpleAggregateQuery query;
  double true_value = 0;
  bool erroneous = false;
  Rendered rendered;
  std::string sentence;
};

/// The claim sentence: predicate values and column mentions always appear
/// verbatim (they are the decisive keywords), with an aggregation cue word
/// per function. One claim per sentence — fleet articles optimize for
/// deterministic detector alignment over prose variety.
std::string RenderFleetSentence(const FleetClaim& claim,
                                const DatasetShape& shape, Rng* rng) {
  const auto& q = claim.query;
  const std::string v = claim.rendered.text;
  auto mention = [&](const std::string& column) -> const std::string& {
    for (const auto& dim : shape.dims) {
      if (dim.column == column) return dim.mention;
    }
    for (const auto& measure : shape.measures) {
      if (measure.column == column) return measure.mention;
    }
    static const std::string kFallback = "value";
    return kFallback;
  };
  auto pred = [&](size_t i) {
    return "a " + mention(q.predicates[i].column.column) + " of " +
           q.predicates[i].value.ToString();
  };

  switch (q.fn) {
    case db::AggFn::kCount:
      if (q.predicates.empty()) {
        return "In total, the data set covers " + v + " records";
      }
      if (q.predicates.size() == 1) {
        switch (rng->NextBounded(3)) {
          case 0:
            return "Exactly " + v + " records had " + pred(0);
          case 1:
            return "There were " + v + " " +
                   q.predicates[0].value.ToString() + " records in the data";
          default:
            return "We counted " + v + " records where the " +
                   mention(q.predicates[0].column.column) + " was " +
                   q.predicates[0].value.ToString();
        }
      }
      return "Exactly " + v + " records combined " + pred(0) + " with " +
             pred(1);
    case db::AggFn::kCountDistinct:
      return "The records covered " + v + " different " +
             mention(q.agg_column.column) + "s";
    case db::AggFn::kSum:
      if (q.predicates.empty()) {
        return "The combined " + mention(q.agg_column.column) +
               " across all records reached " + v;
      }
      return "For records with " + pred(0) + ", the total " +
             mention(q.agg_column.column) + " reached " + v;
    case db::AggFn::kAvg:
      if (q.predicates.empty()) {
        return "The average " + mention(q.agg_column.column) +
               " across all records was " + v;
      }
      return "Among records with " + pred(0) + ", the average " +
             mention(q.agg_column.column) + " was " + v;
    case db::AggFn::kMin:
      return "The lowest " + mention(q.agg_column.column) +
             " recorded was " + v;
    case db::AggFn::kMax:
      return "The highest " + mention(q.agg_column.column) +
             " recorded was " + v;
    case db::AggFn::kPercentage:
      if (q.predicates.size() >= 2) {
        return "Among records with " + pred(1) + ", " + v +
               " percent had " + pred(0);
      }
      return v + " percent of the records had " + pred(0);
    case db::AggFn::kConditionalProbability:
      return "Among records with " + pred(0) + ", " + v + " percent had " +
             pred(1);
  }
  return "The value was " + v;
}

/// Builds one article's claims against its dataset. Deterministic in
/// (spec.seed, article_index) given the (deterministic) dataset.
std::vector<FleetClaim> BuildClaims(const FleetSpec& spec,
                                    const db::Database& db,
                                    const DatasetShape& shape, Rng* rng) {
  const db::Table& table = *db.FindTable("facts");
  db::QueryExecutor exec(&db);
  db::RelationCache* cache = &db.relation_cache();

  int64_t jitter = rng->NextInt(-2, 2);
  const size_t target = static_cast<size_t>(std::max<int64_t>(
      1, static_cast<int64_t>(spec.claims_per_article) + jitter));

  std::vector<FleetClaim> claims;
  std::set<std::string> used_queries;
  for (size_t k = 0; k < target; ++k) {
    for (int attempt = 0; attempt < 40; ++attempt) {
      db::SimpleAggregateQuery q;
      double roll = rng->NextDouble();
      int npreds = roll < 0.05 ? 0 : roll < 0.75 ? 1 : 2;
      double fn_roll = rng->NextDouble();
      if (fn_roll < 0.45) {
        q.fn = db::AggFn::kCount;
      } else if (fn_roll < 0.60 && npreds >= 1) {
        q.fn = db::AggFn::kPercentage;
      } else if (fn_roll < 0.75) {
        q.fn = db::AggFn::kAvg;
      } else if (fn_roll < 0.83) {
        q.fn = db::AggFn::kSum;
      } else if (fn_roll < 0.90) {
        q.fn = db::AggFn::kCountDistinct;
        npreds = 0;  // phrased without restrictions in our templates
      } else {
        q.fn = rng->NextBool(0.5) ? db::AggFn::kMax : db::AggFn::kMin;
        npreds = 0;
      }

      if (q.fn == db::AggFn::kCount) {
        q.agg_column = {"facts", ""};
      } else if (q.fn == db::AggFn::kCountDistinct) {
        const DimSpec& dim = shape.dims[rng->NextBounded(shape.dims.size())];
        q.agg_column = {"facts", dim.column};
      } else if (q.fn != db::AggFn::kPercentage) {
        const MeasureSpec& measure =
            shape.measures[rng->NextBounded(shape.measures.size())];
        q.agg_column = {"facts", measure.column};
      }

      // Predicates on distinct dimensions, with values realized in the data
      // (DistinctValues keeps the ground truth non-vacuous under skew).
      std::set<size_t> used_dims;
      bool pred_failed = false;
      for (int p = 0; p < npreds; ++p) {
        size_t d = rng->NextBounded(shape.dims.size());
        int guard = 0;
        while (used_dims.count(d) > 0 && guard++ < 5) {
          d = rng->NextBounded(shape.dims.size());
        }
        if (used_dims.count(d) > 0) {
          pred_failed = true;
          break;
        }
        used_dims.insert(d);
        const db::Column* column = table.FindColumn(shape.dims[d].column);
        const auto& distinct = column->DistinctValues();
        if (distinct.empty()) {
          pred_failed = true;
          break;
        }
        const db::Value& value = distinct[rng->NextBounded(distinct.size())];
        q.predicates.push_back(
            db::Predicate{{"facts", shape.dims[d].column}, value});
      }
      if (pred_failed) continue;
      if (q.fn == db::AggFn::kPercentage) {
        q.agg_column = q.predicates[0].column;
      }

      if (used_queries.count(q.CanonicalKey()) > 0) continue;
      auto result = exec.Execute(q, nullptr, nullptr, cache);
      if (!result.ok() || !result->has_value()) continue;
      double truth = **result;
      if (truth <= 0) continue;  // "zero X" reads oddly in prose
      if (RendersAsYear(truth)) continue;

      FleetClaim claim;
      claim.query = q;
      claim.true_value = truth;
      claim.erroneous = rng->NextBool(spec.error_rate);
      double reported = claim.erroneous ? Corrupt(truth, rng) : truth;
      claim.rendered = RenderValue(reported, rng);
      if (RendersAsYear(claim.rendered.claimed_value)) continue;
      // The flag must agree with the checker's own rounding of the surface
      // form — ground truth by construction, not by intent.
      claim.erroneous =
          !rounding::RoundsTo(truth, claim.rendered.claimed_value);
      claim.sentence = RenderFleetSentence(claim, shape, rng);
      used_queries.insert(q.CanonicalKey());
      claims.push_back(std::move(claim));
      break;
    }
  }
  return claims;
}

/// Lays the claims out as a titled, sectioned document. Deterministic in
/// (render_seed, claims) and re-runnable: validation re-renders after
/// dropping claims, so the layout rng must be independent of the claim rng.
void RenderArticleDocument(uint64_t render_seed, const DatasetShape& shape,
                           const std::vector<FleetClaim>& claims,
                           text::TextDocument* out) {
  Rng rng(render_seed);
  *out = text::TextDocument();
  out->set_title("What The " + Capitalize(shape.dims.front().mention) +
                 " Records Reveal");
  size_t pos = 0;
  while (pos < claims.size()) {
    size_t take = std::min<size_t>(
        claims.size() - pos, static_cast<size_t>(rng.NextInt(2, 4)));
    std::string headline = "Records";
    for (size_t i = pos; i < pos + take; ++i) {
      if (claims[i].query.predicates.empty()) continue;
      headline = "Records by " +
                 [&]() -> std::string {
                   const auto& column =
                       claims[i].query.predicates[0].column.column;
                   for (const auto& dim : shape.dims) {
                     if (dim.column == column) return dim.mention;
                   }
                   return std::string("group");
                 }();
      break;
    }
    int section = out->AddSection(Capitalize(headline));
    std::string paragraph;
    for (size_t i = pos; i < pos + take; ++i) {
      if (!paragraph.empty()) paragraph += ' ';
      paragraph += Capitalize(claims[i].sentence) + ".";
    }
    out->AddParagraph(paragraph, section);
    pos += take;
  }
}

/// Drops the claims the full checker disagrees with (wrong erroneous flag,
/// or only a partial verdict) and re-renders until a clean pass: emitted
/// articles carry ground truth the pipeline reproduces exactly — the
/// contract behind the fleet-smoke "zero erroneous verdicts" gate. The
/// checker is deterministic, so validation preserves corpus determinism.
void ValidateArticle(core::AggChecker* validator, uint64_t render_seed,
                     const DatasetShape& shape,
                     std::vector<FleetClaim>* claims,
                     text::TextDocument* document) {
  for (int round = 0; round < 4 && !claims->empty(); ++round) {
    auto report = validator->Check(*document);
    if (!report.ok()) return;
    if (report->verdicts.size() != claims->size()) return;
    std::vector<size_t> keep;
    keep.reserve(claims->size());
    for (size_t i = 0; i < claims->size(); ++i) {
      const core::ClaimVerdict& v = report->verdicts[i];
      if (v.partial || v.likely_erroneous != (*claims)[i].erroneous) continue;
      keep.push_back(i);
    }
    if (keep.size() == claims->size()) return;  // clean pass
    std::vector<FleetClaim> kept;
    kept.reserve(keep.size());
    for (size_t i : keep) kept.push_back(std::move((*claims)[i]));
    *claims = std::move(kept);
    RenderArticleDocument(render_seed, shape, *claims, document);
  }
}

FleetArticle BuildArticle(const FleetSpec& spec, size_t article_index,
                          size_t dataset_index, const db::Database& db,
                          const DatasetShape& shape,
                          core::AggChecker* validator) {
  Rng rng(spec.seed * 1000003 + article_index * 9176 + 71);
  FleetArticle article;
  article.dataset = dataset_index;
  article.name = strings::Format("fleet-%05zu", article_index);

  std::vector<FleetClaim> claims = BuildClaims(spec, db, shape, &rng);
  const uint64_t render_seed =
      spec.seed * 2654435761ull + article_index * 40503ull + 13;
  RenderArticleDocument(render_seed, shape, claims, &article.document);
  if (validator != nullptr) {
    ValidateArticle(validator, render_seed, shape, &claims,
                    &article.document);
  }

  for (const FleetClaim& claim : claims) {
    GroundTruthClaim g;
    g.claimed_value = claim.rendered.claimed_value;
    g.query = claim.query;
    g.true_value = claim.true_value;
    g.is_erroneous = claim.erroneous;
    article.ground_truth.push_back(std::move(g));
  }
  return article;
}

}  // namespace

FleetCorpus GenerateFleet(const FleetSpec& spec) {
  FleetCorpus corpus;
  const size_t num_datasets = std::max<size_t>(spec.num_datasets, 1);
  std::vector<DatasetShape> shapes;
  shapes.reserve(num_datasets);
  for (size_t d = 0; d < num_datasets; ++d) {
    auto db = std::make_unique<db::Database>(
        strings::Format("fleet-db-%02zu", d));
    shapes.push_back(BuildDataset(spec, d, db.get()));
    corpus.datasets.push_back(std::move(db));
  }

  // One validator per dataset: each article is checked during generation
  // and claims the pipeline cannot reproduce are dropped (ValidateArticle).
  // A persistent instance per dataset keeps the catalog and eval caches
  // warm across articles; reports are bit-identical warm or cold.
  std::vector<std::unique_ptr<core::AggChecker>> validators;
  for (size_t d = 0; d < num_datasets; ++d) {
    auto checker = core::AggChecker::Create(corpus.datasets[d].get());
    validators.push_back(checker.ok()
                             ? std::make_unique<core::AggChecker>(
                                   std::move(*checker))
                             : nullptr);
  }

  corpus.articles.reserve(spec.num_articles);
  for (size_t a = 0; a < spec.num_articles; ++a) {
    // Chaos hook: an injected emit fault drops this article only; the
    // generator keeps going and surviving articles are byte-identical to
    // their fault-free twins (per-article rng streams are independent).
    Status emit_status;
    AGG_FAULT_POINT_STATUS("fleet.generator.emit", emit_status);
    if (!emit_status.ok()) {
      ++corpus.articles_dropped;
      continue;
    }
    const size_t d = a % num_datasets;
    corpus.articles.push_back(BuildArticle(spec, a, d, *corpus.datasets[d],
                                           shapes[d], validators[d].get()));
  }
  return corpus;
}

}  // namespace corpus
}  // namespace aggchecker
