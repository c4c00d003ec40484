#include "db/query_interner.h"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "claims/claim_detector.h"
#include "model/translator.h"
#include "test_fixtures.h"
#include "text/document.h"

namespace aggchecker {
namespace model {
namespace {

using testing_fixtures::MakeNflDatabase;

constexpr const char* kNflArticle = R"(
<h1>The NFL's Uneven History Of Punishing Domestic Violence</h1>
<h2>Lifetime bans</h2>
<p>There were only four previous lifetime bans in my database. Three were
for repeated substance abuse offenses, one was for gambling.</p>
)";

/// The claim-detection front half, up to per-claim relevance — what
/// CandidateSpace::Build needs.
struct Pipeline {
  Pipeline() : database(MakeNflDatabase()) {
    auto parsed = text::ParseDocument(kNflArticle);
    doc = std::move(*parsed);
    detected = claims::ClaimDetector().Detect(doc);
    auto built = fragments::FragmentCatalog::Build(database);
    catalog = std::make_unique<fragments::FragmentCatalog>(std::move(*built));
    claims::RelevanceScorer scorer(catalog.get(), claims::KeywordExtractor(),
                                   20);
    relevance = scorer.ScoreAll(doc, detected);
  }

  db::Database database;
  text::TextDocument doc;
  std::vector<claims::Claim> detected;
  std::unique_ptr<fragments::FragmentCatalog> catalog;
  std::vector<claims::ClaimRelevance> relevance;
};

/// The property the translator's fingerprint path rests on, enumerated over
/// every candidate triple of every claim's space:
///   Encode(f, c, s) == InternQuery(Materialize(f, c, s))
/// and Materialize(Encode(...)) reproduces the space's query verbatim — so
/// shipping ids instead of queries can never change what gets evaluated.
TEST(QueryFingerprintTest, EncodeMaterializeRoundTripOverCandidateSpaces) {
  Pipeline p;
  ASSERT_FALSE(p.detected.empty());
  db::QueryInterner interner;
  std::unordered_set<uint64_t> ids_seen;
  size_t triples = 0;
  ModelOptions options;
  for (const auto& rel : p.relevance) {
    auto space = CandidateSpace::Build(p.database, *p.catalog, rel, options);
    CandidateInterner encoder(space, *p.catalog, interner);
    for (size_t f = 0; f < space.functions().size(); ++f) {
      for (size_t c = 0; c < space.columns().size(); ++c) {
        for (size_t s = 0; s < space.subsets().size(); ++s) {
          ++triples;
          const db::QueryInterner::Id id = encoder.Encode(f, c, s);
          const auto query = space.Materialize(f, c, s, *p.catalog);
          // Round trip in both directions.
          EXPECT_EQ(interner.Materialize(id), query)
              << "f=" << f << " c=" << c << " s=" << s;
          EXPECT_EQ(interner.InternQuery(query), id)
              << "f=" << f << " c=" << c << " s=" << s;
          // Memoized re-encode is stable.
          EXPECT_EQ(encoder.Encode(f, c, s), id);
          ids_seen.insert(id);
        }
      }
    }
  }
  ASSERT_GT(triples, 100u);  // the fixture exercises a non-trivial space
  EXPECT_EQ(interner.num_queries(), ids_seen.size());
}

TEST(QueryFingerprintTest, InternQueryIsIdempotentAndVerbatim) {
  db::QueryInterner interner;
  db::SimpleAggregateQuery q;
  q.fn = db::AggFn::kSum;
  q.agg_column = {"orders", "amount"};
  q.predicates = {{{"customers", "region"}, db::Value(std::string("east"))}};
  const auto id = interner.InternQuery(q);
  EXPECT_EQ(interner.InternQuery(q), id);
  EXPECT_EQ(interner.Materialize(id), q);
}

TEST(QueryFingerprintTest, ColumnsInternCaseInsensitively) {
  db::QueryInterner interner;
  db::SimpleAggregateQuery lower;
  lower.fn = db::AggFn::kCount;
  lower.agg_column = {"orders", ""};
  lower.predicates = {
      {{"customers", "region"}, db::Value(std::string("east"))}};
  db::SimpleAggregateQuery upper = lower;
  upper.agg_column = {"ORDERS", ""};
  upper.predicates[0].column = {"Customers", "REGION"};
  const auto id = interner.InternQuery(lower);
  EXPECT_EQ(interner.InternQuery(upper), id);
  // First-seen spelling is what materializes.
  EXPECT_EQ(interner.Materialize(id).predicates[0].column.table, "customers");
}

TEST(QueryFingerprintTest, ValuesInternByValueEquality) {
  db::QueryInterner interner;
  // Numeric coercion: 5 (long) and 5.0 (double) are the same literal, so
  // predicates over them are the same predicate — matching the literal
  // dedup of the engine's plan phase.
  const auto as_long = interner.InternValue(db::Value(int64_t{5}));
  const auto as_double = interner.InternValue(db::Value(5.0));
  EXPECT_EQ(as_long, as_double);
  const auto col = interner.InternColumn({"orders", "amount"});
  EXPECT_EQ(interner.InternPredicate(interner.column(col),
                                     db::Value(int64_t{5})),
            interner.InternPredicate(interner.column(col), db::Value(5.0)));
}

TEST(QueryFingerprintTest, PredicateListsAreOrderPreserving) {
  db::QueryInterner interner;
  // ConditionalProbability reads predicates[0] as the condition, so the
  // interner must NOT canonicalize predicate order.
  const auto a = interner.InternPredicate({"t", "a"},
                                          db::Value(std::string("x")));
  const auto b = interner.InternPredicate({"t", "b"},
                                          db::Value(std::string("y")));
  EXPECT_NE(interner.InternPredList({a, b}), interner.InternPredList({b, a}));
  EXPECT_EQ(interner.InternPredList({a, b}), interner.InternPredList({a, b}));
}

TEST(QueryFingerprintTest, FingerprintSeparatesEveryComponent) {
  db::QueryInterner interner;
  db::SimpleAggregateQuery base;
  base.fn = db::AggFn::kCount;
  base.agg_column = {"orders", ""};
  base.predicates = {
      {{"customers", "region"}, db::Value(std::string("east"))}};
  const auto base_id = interner.InternQuery(base);

  auto other_fn = base;
  other_fn.fn = db::AggFn::kCountDistinct;
  auto other_col = base;
  other_col.agg_column = {"orders", "amount"};
  auto other_pred = base;
  other_pred.predicates[0].value = db::Value(std::string("west"));
  auto no_pred = base;
  no_pred.predicates.clear();
  for (const auto& variant : {other_fn, other_col, other_pred, no_pred}) {
    const auto id = interner.InternQuery(variant);
    EXPECT_NE(id, base_id) << variant.ToSql();
  }
}

}  // namespace
}  // namespace model
}  // namespace aggchecker
