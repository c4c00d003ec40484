// Reproduces Table 2: the document-specific priors Θ converging over EM
// iterations on the NFL running example — the Count(*) function prior and
// the restriction priors on Games/Category rise as the common theme is
// learned, while off-theme fragments fall.

#include <cstdio>

#include "claims/claim_detector.h"
#include "claims/relevance_scorer.h"
#include "corpus/embedded_articles.h"
#include "model/translator.h"

int main() {
  using namespace aggchecker;
  std::printf("==========================================================\n");
  std::printf("Table 2: changing priors during EM iterations\n");
  std::printf("paper: Count(*) 0.025 -> 0.150; Games=(any) 0.143 -> 0.417; "
              "Category=(any) 0.143 -> 0.297\n");
  std::printf("==========================================================\n");

  auto c = corpus::MakeNflCase();
  auto catalog = fragments::FragmentCatalog::Build(c.database);
  auto detected = claims::ClaimDetector().Detect(c.document);
  claims::RelevanceScorer scorer(&*catalog, claims::KeywordExtractor(), 20);
  auto relevance = scorer.ScoreAll(c.document, detected);

  model::ModelOptions options;
  options.trace_priors = true;
  options.max_em_iterations = 6;
  options.convergence_tol = 0;  // show every iteration
  model::Translator translator(&c.database, &*catalog, options);
  db::EvalEngine engine(&c.database, db::EvalStrategy::kMergedCached);
  auto result = translator.Translate(detected, relevance, &engine,
                                     /*top_k=*/0);

  struct TrackedFragment {
    const char* label;
    enum { kFn, kRestrict } kind;
    db::AggFn fn;
    db::ColumnRef column;
  };
  const TrackedFragment tracked[] = {
      {"Count(*)", TrackedFragment::kFn, db::AggFn::kCount, {}},
      {"Sum(...)", TrackedFragment::kFn, db::AggFn::kSum, {}},
      {"Average(...)", TrackedFragment::kFn, db::AggFn::kAvg, {}},
      {"Games = (any value)", TrackedFragment::kRestrict, db::AggFn::kCount,
       {"nflsuspensions", "Games"}},
      {"Category = (any value)", TrackedFragment::kRestrict,
       db::AggFn::kCount, {"nflsuspensions", "Category"}},
      {"Team = (any value)", TrackedFragment::kRestrict, db::AggFn::kCount,
       {"nflsuspensions", "Team"}},
  };

  std::printf("%-24s", "query fragment");
  for (size_t i = 0; i < result.prior_trace.size(); ++i) {
    std::printf(i == 0 ? "  initial" : "   iter %zu", i);
  }
  std::printf("\n");
  for (const auto& t : tracked) {
    std::printf("%-24s", t.label);
    for (const model::Priors& priors : result.prior_trace) {
      double value = t.kind == TrackedFragment::kFn
                         ? priors.fn_prior(t.fn)
                         : priors.restrict_prior(
                               catalog->PredicateColumnIndex(t.column));
      std::printf("  %7.3f", value);
    }
    std::printf("\n");
  }
  std::printf("\n(%d EM iterations; the theme — counts restricted on Games/"
              "Category — dominates the final priors)\n",
              result.em_iterations);
  return 0;
}
