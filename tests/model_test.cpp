#include "model/translator.h"

#include <gtest/gtest.h>

#include <limits>

#include "claims/claim_detector.h"
#include "model/priors.h"
#include "test_fixtures.h"
#include "text/document.h"

namespace aggchecker {
namespace model {
namespace {

using testing_fixtures::MakeNflDatabase;

/// A top_k that reports every selected candidate of a claim.
constexpr size_t kAllCandidates = std::numeric_limits<size_t>::max();

constexpr const char* kNflArticle = R"(
<h1>The NFL's Uneven History Of Punishing Domestic Violence</h1>
<h2>Lifetime bans</h2>
<p>There were only four previous lifetime bans in my database. Three were
for repeated substance abuse offenses, one was for gambling.</p>
)";

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

TEST(PriorsTest, UniformSumsToOne) {
  Pipeline p;
  Priors priors = Priors::Uniform(*p.catalog);
  double fn_sum = 0;
  for (db::AggFn fn : db::AllAggFns()) fn_sum += priors.fn_prior(fn);
  EXPECT_NEAR(fn_sum, 1.0, 1e-9);
  double col_sum = 0;
  for (size_t i = 0; i < priors.num_agg_col_components(); ++i) {
    col_sum += priors.agg_col_prior(static_cast<int>(i));
  }
  EXPECT_NEAR(col_sum, 1.0, 1e-9);
}

TEST(PriorsTest, MaximizationReflectsMlQueries) {
  Pipeline p;
  // Three ML queries, all Count(*) with a restriction on Games.
  std::vector<db::SimpleAggregateQuery> ml;
  for (int i = 0; i < 3; ++i) {
    ml.push_back(testing_fixtures::CountStar(
        "nflsuspensions",
        {{{"nflsuspensions", "Games"}, db::Value(std::string("indef"))}}));
  }
  Priors priors = Priors::FromMlQueries(ml, *p.catalog);
  // Count dominates the function prior (Table 2's convergence pattern).
  for (db::AggFn fn : db::AllAggFns()) {
    if (fn != db::AggFn::kCount) {
      EXPECT_GT(priors.fn_prior(db::AggFn::kCount), priors.fn_prior(fn));
    }
  }
  // Restriction prior on Games beats the other columns.
  int games = p.catalog->PredicateColumnIndex({"nflsuspensions", "Games"});
  int team = p.catalog->PredicateColumnIndex({"nflsuspensions", "Team"});
  EXPECT_GT(priors.restrict_prior(games), priors.restrict_prior(team));
}

TEST(PriorsTest, MaxDeltaZeroForSelf) {
  Pipeline p;
  Priors priors = Priors::Uniform(*p.catalog);
  EXPECT_DOUBLE_EQ(priors.MaxDelta(priors), 0.0);
}

TEST(CandidateSpaceTest, BuildsNonTrivialSpace) {
  Pipeline p;
  ModelOptions options;
  auto space = CandidateSpace::Build(p.database, *p.catalog, p.relevance[2],
                                     options);
  EXPECT_EQ(space.functions().size(), 8u);
  EXPECT_GE(space.columns().size(), 1u);
  EXPECT_GE(space.subsets().size(), 2u);  // at least empty + one predicate
  // 8 functions x >=1 column x >=8 subsets on this small fixture.
  EXPECT_GT(space.TotalCandidates(), 50u);
}

TEST(CandidateSpaceTest, ValidityRules) {
  Pipeline p;
  ModelOptions options;
  auto space = CandidateSpace::Build(p.database, *p.catalog, p.relevance[2],
                                     options);
  // Find indices: a star column and the CondProb function.
  size_t star_col = space.columns().size();
  for (size_t c = 0; c < space.columns().size(); ++c) {
    if (p.catalog->fragment(fragments::FragmentType::kAggColumn,
                            space.columns()[c].frag)
            .is_star_column()) {
      star_col = c;
    }
  }
  ASSERT_LT(star_col, space.columns().size());
  for (size_t f = 0; f < space.functions().size(); ++f) {
    db::AggFn fn = p.catalog->fragment(fragments::FragmentType::kAggFunction,
                                       space.functions()[f].frag)
                       .fn;
    bool star_ok = space.Valid(f, star_col, 0);
    if (fn == db::AggFn::kSum || fn == db::AggFn::kAvg ||
        fn == db::AggFn::kMin || fn == db::AggFn::kMax ||
        fn == db::AggFn::kCountDistinct) {
      EXPECT_FALSE(star_ok) << db::AggFnName(fn);
    }
    if (fn == db::AggFn::kCount) {
      EXPECT_TRUE(star_ok);
    }
    // ConditionalProbability needs a predicate: subset 0 is empty.
    if (fn == db::AggFn::kConditionalProbability) {
      EXPECT_FALSE(space.Valid(f, star_col, 0));
    }
  }
}

TEST(CandidateSpaceTest, SubsetsHaveDistinctColumns) {
  Pipeline p;
  ModelOptions options;
  auto space = CandidateSpace::Build(p.database, *p.catalog, p.relevance[0],
                                     options);
  for (const auto& subset : space.subsets()) {
    std::set<int> cols(subset.restrict_cols.begin(),
                       subset.restrict_cols.end());
    EXPECT_EQ(cols.size(), subset.restrict_cols.size());
    EXPECT_LE(subset.frags.size(), static_cast<size_t>(kMaxPredicates));
  }
}

TEST(CandidateSpaceTest, MaterializeRoundTrip) {
  Pipeline p;
  ModelOptions options;
  auto space = CandidateSpace::Build(p.database, *p.catalog, p.relevance[0],
                                     options);
  auto q = space.Materialize(0, 0, 0, *p.catalog);
  db::QueryExecutor exec(&p.database);
  // Materialized candidates that pass Valid() must execute.
  if (space.Valid(0, 0, 0)) {
    EXPECT_TRUE(exec.Validate(q).ok());
  }
}

// ---------------------------------------------------------------------------
// The headline integration test: the full EM pipeline must translate the
// paper's Example 1 claims to their ground-truth queries.
// ---------------------------------------------------------------------------

TEST(TranslatorTest, ResolvesPaperExampleClaims) {
  Pipeline p;
  ModelOptions options;
  db::EvalEngine engine(&p.database, db::EvalStrategy::kMergedCached);
  Translator translator(&p.database, p.catalog.get(), options);
  auto result = translator.Translate(p.detected, p.relevance, &engine, 1);
  ASSERT_EQ(result.per_claim.size(), 3u);  // four, three, one
  for (const ClaimTranslation& t : result.per_claim) {
    ASSERT_EQ(t.top.size(), 1u);
    EXPECT_TRUE(t.top_matches);
  }

  // Claim "four": Count(*) WHERE Games='indef' must be top-1 and match.
  {
    const RankedCandidate& top = result.per_claim[0].top[0];
    EXPECT_TRUE(top.matches);
    ASSERT_TRUE(top.result.has_value());
    EXPECT_DOUBLE_EQ(*top.result, 4.0);
  }
  // Claim "three": must find a matching query (result 3).
  {
    const RankedCandidate& top = result.per_claim[1].top[0];
    EXPECT_TRUE(top.matches) << top.query.ToSql();
  }
  // Claim "one": the gambling query (Example 5).
  {
    const RankedCandidate& top = result.per_claim[2].top[0];
    EXPECT_TRUE(top.matches) << top.query.ToSql();
    ASSERT_TRUE(top.result.has_value());
    EXPECT_DOUBLE_EQ(*top.result, 1.0);
  }
  EXPECT_GE(result.em_iterations, 1);
  EXPECT_GT(result.queries_evaluated, 0u);
  EXPECT_GT(result.total_candidates, 100u);
}

TEST(TranslatorTest, DistributionsNormalized) {
  Pipeline p;
  ModelOptions options;
  db::EvalEngine engine(&p.database, db::EvalStrategy::kMergedCached);
  Translator translator(&p.database, p.catalog.get(), options);
  auto result =
      translator.Translate(p.detected, p.relevance, &engine, kAllCandidates);
  for (const ClaimTranslation& t : result.per_claim) {
    double total = 0;
    double prev = 1.0;
    for (const auto& cand : t.top) {
      total += cand.probability;
      EXPECT_LE(cand.probability, prev + 1e-12);  // sorted descending
      prev = cand.probability;
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
}

// A bounded top_k reports exactly the head of the unbounded ranking, and
// everything summed or decided over all candidates stays the same.
TEST(TranslatorTest, TopKIsHeadOfFullRanking) {
  Pipeline p;
  auto translate = [&](size_t top_k) {
    db::EvalEngine engine(&p.database, db::EvalStrategy::kMergedCached);
    Translator translator(&p.database, p.catalog.get(), ModelOptions{});
    return translator.Translate(p.detected, p.relevance, &engine, top_k);
  };
  const TranslationResult all = translate(kAllCandidates);
  ASSERT_EQ(all.per_claim.size(), 3u);
  for (size_t k : {0u, 1u, 3u}) {
    const TranslationResult head = translate(k);
    ASSERT_EQ(head.per_claim.size(), all.per_claim.size());
    for (size_t i = 0; i < all.per_claim.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " claim " << i);
      const ClaimTranslation& full = all.per_claim[i];
      const ClaimTranslation& cut = head.per_claim[i];
      ASSERT_FALSE(full.top.empty());
      ASSERT_GE(full.top.size(), k);
      ASSERT_EQ(cut.top.size(), k);
      for (size_t r = 0; r < k; ++r) {
        const RankedCandidate& a = full.top[r];
        const RankedCandidate& b = cut.top[r];
        EXPECT_TRUE(a.query == b.query) << b.query.ToSql();
        EXPECT_EQ(a.probability, b.probability);
        EXPECT_EQ(a.result, b.result);
        EXPECT_EQ(a.matches, b.matches);
        EXPECT_EQ(a.keyword_score, b.keyword_score);
        EXPECT_EQ(a.prior, b.prior);
      }
      EXPECT_EQ(cut.correctness_probability, full.correctness_probability);
      EXPECT_EQ(cut.top_matches, full.top_matches);
      EXPECT_EQ(cut.top_matches, full.top[0].matches);
      EXPECT_EQ(cut.total_candidates, full.total_candidates);
      EXPECT_EQ(cut.partial, full.partial);
      EXPECT_EQ(cut.dependency_tables, full.dependency_tables);
    }
  }
}

TEST(TranslatorTest, AblationsDegradeGracefully) {
  Pipeline p;
  db::EvalEngine engine(&p.database, db::EvalStrategy::kMergedCached);

  // S_c only: no evaluations enter the posterior, single EM iteration.
  ModelOptions sc_only;
  sc_only.use_eval_results = false;
  sc_only.use_priors = false;
  Translator t1(&p.database, p.catalog.get(), sc_only);
  auto r1 = t1.Translate(p.detected, p.relevance, &engine, 0);
  EXPECT_EQ(r1.em_iterations, 1);

  // Full model must do at least as well on top-1 matches.
  ModelOptions full;
  Translator t2(&p.database, p.catalog.get(), full);
  auto r2 = t2.Translate(p.detected, p.relevance, &engine, 0);
  int matches1 = 0, matches2 = 0;
  for (size_t i = 0; i < r1.per_claim.size(); ++i) {
    if (r1.per_claim[i].top_matches) ++matches1;
    if (r2.per_claim[i].top_matches) ++matches2;
  }
  EXPECT_GE(matches2, matches1);
}

TEST(TranslatorTest, EmptyClaimsYieldEmptyResult) {
  Pipeline p;
  db::EvalEngine engine(&p.database, db::EvalStrategy::kMergedCached);
  Translator translator(&p.database, p.catalog.get(), ModelOptions{});
  auto result = translator.Translate({}, {}, &engine, kAllCandidates);
  EXPECT_TRUE(result.per_claim.empty());
  EXPECT_EQ(result.em_iterations, 0);
}

}  // namespace
}  // namespace model
}  // namespace aggchecker
