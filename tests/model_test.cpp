#include "model/translator.h"

#include <gtest/gtest.h>

#include "claims/claim_detector.h"
#include "model/priors.h"
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
  auto result = translator.Translate(p.detected, p.relevance, &engine);
  ASSERT_EQ(result.distributions.size(), 3u);  // four, three, one

  // Claim "four": Count(*) WHERE Games='indef' must be top-1 and match.
  {
    const auto* top = result.distributions[0].top();
    ASSERT_NE(top, nullptr);
    EXPECT_TRUE(top->matches);
    ASSERT_TRUE(top->result.has_value());
    EXPECT_DOUBLE_EQ(*top->result, 4.0);
  }
  // Claim "three": must find a matching query (result 3).
  {
    const auto* top = result.distributions[1].top();
    ASSERT_NE(top, nullptr);
    EXPECT_TRUE(top->matches) << top->query.ToSql();
  }
  // Claim "one": the gambling query (Example 5).
  {
    const auto* top = result.distributions[2].top();
    ASSERT_NE(top, nullptr);
    EXPECT_TRUE(top->matches) << top->query.ToSql();
    ASSERT_TRUE(top->result.has_value());
    EXPECT_DOUBLE_EQ(*top->result, 1.0);
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
  auto result = translator.Translate(p.detected, p.relevance, &engine);
  for (const auto& dist : result.distributions) {
    double total = 0;
    double prev = 1.0;
    for (const auto& cand : dist.ranked) {
      total += cand.probability;
      EXPECT_LE(cand.probability, prev + 1e-12);  // sorted descending
      prev = cand.probability;
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
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
  auto r1 = t1.Translate(p.detected, p.relevance, &engine);
  EXPECT_EQ(r1.em_iterations, 1);

  // Full model must do at least as well on top-1 matches.
  ModelOptions full;
  Translator t2(&p.database, p.catalog.get(), full);
  auto r2 = t2.Translate(p.detected, p.relevance, &engine);
  int matches1 = 0, matches2 = 0;
  for (size_t i = 0; i < r1.distributions.size(); ++i) {
    if (r1.distributions[i].top() && r1.distributions[i].top()->matches) {
      ++matches1;
    }
    if (r2.distributions[i].top() && r2.distributions[i].top()->matches) {
      ++matches2;
    }
  }
  EXPECT_GE(matches2, matches1);
}

TEST(TranslatorTest, EmptyClaimsYieldEmptyResult) {
  Pipeline p;
  db::EvalEngine engine(&p.database, db::EvalStrategy::kMergedCached);
  Translator translator(&p.database, p.catalog.get(), ModelOptions{});
  auto result = translator.Translate({}, {}, &engine);
  EXPECT_TRUE(result.distributions.empty());
  EXPECT_EQ(result.em_iterations, 0);
}

}  // namespace
}  // namespace model
}  // namespace aggchecker
