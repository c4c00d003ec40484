// Reproduces Table 5: AggChecker against its own ablations (keyword
// context, probabilistic model, time budget by retrieval hits) and against
// the fact-checking / NLQ baselines, measured as precision/recall/F1 on
// erroneous-claim detection plus end-to-end run time.

#include "baselines/claimbuster_fm.h"
#include "baselines/nalir.h"
#include "bench_common.h"
#include "claims/claim_detector.h"
#include "util/strings.h"
#include "util/timer.h"

namespace aggchecker {
namespace {

void RunVariant(const std::string& label, core::CheckOptions options,
                const char* paper_ref) {
  auto result = corpus::RunOnCorpus(bench::SharedCorpus(), options);
  std::printf("%-34s recall=%5.1f%%  precision=%5.1f%%  F1=%5.1f%%  "
              "time=%5.1fs  %s\n",
              label.c_str(), result.detection.Recall() * 100,
              result.detection.Precision() * 100,
              result.detection.F1() * 100, result.total_seconds, paper_ref);
}

/// Scores a baseline that flags claims without the AggChecker pipeline.
template <typename FlagFn>
void RunBaseline(const std::string& label, FlagFn&& flag_claims,
                 const char* paper_ref) {
  corpus::ErrorDetectionMetrics metrics;
  Timer timer;
  for (const corpus::CorpusCase& c : bench::SharedCorpus()) {
    auto detected = claims::ClaimDetector().Detect(c.document);
    std::vector<bool> flags = flag_claims(c, detected);
    size_t n = std::min(flags.size(), c.ground_truth.size());
    metrics.total_claims += n;
    for (size_t i = 0; i < n; ++i) {
      bool erroneous = c.ground_truth[i].is_erroneous;
      if (flags[i] && erroneous) ++metrics.true_positives;
      if (flags[i] && !erroneous) ++metrics.false_positives;
      if (!flags[i] && erroneous) ++metrics.false_negatives;
    }
  }
  std::printf("%-34s recall=%5.1f%%  precision=%5.1f%%  F1=%5.1f%%  "
              "time=%5.1fs  %s\n",
              label.c_str(), metrics.Recall() * 100,
              metrics.Precision() * 100, metrics.F1() * 100,
              timer.ElapsedSeconds(), paper_ref);
}

}  // namespace
}  // namespace aggchecker

int main() {
  using namespace aggchecker;
  bench::Header("Table 5: AggChecker variants vs baselines",
                "AggChecker 70.8/36.2/47.9 vs ClaimBuster-FM ~18-21 F1, "
                "ClaimBuster-KB+NaLIR 3.9 F1");

  std::printf("--- keyword context (Figure 11's increments) ---\n");
  {
    core::CheckOptions options;
    options.context = claims::KeywordContextOptions::ClaimSentenceOnly();
    RunVariant("Claim sentence", options, "paper F1=41.7");
    options.context.previous_sentence = true;
    RunVariant("+ Previous sentence", options, "paper F1=42.9");
    options.context.paragraph_start = true;
    RunVariant("+ Paragraph start", options, "paper F1=43.9");
    options.context.synonyms = true;
    RunVariant("+ Synonyms", options, "paper F1=46.3");
    options.context.headlines = true;
    RunVariant("+ Headlines (current version)", options, "paper F1=47.9");
  }

  std::printf("--- probabilistic model (Table 10's increments) ---\n");
  {
    core::CheckOptions options;
    options.model.use_eval_results = false;
    options.model.use_priors = false;
    RunVariant("Relevance scores Sc", options, "paper F1=23.3");
    options.model.use_eval_results = true;
    RunVariant("+ Evaluation results Ec", options, "paper F1=44.7");
    options.model.use_priors = true;
    RunVariant("+ Learning priors (current)", options, "paper F1=47.9");
  }

  std::printf("--- time budget by retrieval hits ---\n");
  for (size_t hits : {1u, 10u, 20u, 30u}) {
    core::CheckOptions options;
    options.model.lucene_hits = hits;
    // Deeper retrieval buys a proportionally larger evaluation scope.
    options.model.max_eval_per_claim = 8 * hits;
    RunVariant(strings::Format("# Hits = %zu", hits), options,
               hits == 20 ? "paper F1=47.9 (current)" : "");
  }

  std::printf("--- baselines ---\n");
  RunBaseline(
      "ClaimBuster-FM (Max)",
      [fm = baselines::ClaimBusterFm(
           baselines::ClaimBusterFm::Aggregation::kMax)](
          const corpus::CorpusCase& c,
          const std::vector<claims::Claim>& detected) {
        return fm.CheckDocument(c.document, detected);
      },
      "paper 34.1/12.3/18.1");
  RunBaseline(
      "ClaimBuster-FM (MV)",
      [fm = baselines::ClaimBusterFm(
           baselines::ClaimBusterFm::Aggregation::kMajorityVote)](
          const corpus::CorpusCase& c,
          const std::vector<claims::Claim>& detected) {
        return fm.CheckDocument(c.document, detected);
      },
      "paper 31.7/15.9/21.1");
  {
    size_t attempts = 0, questions = 0, translations = 0, single = 0;
    RunBaseline(
        "ClaimBuster-KB + NaLIR",
        [&](const corpus::CorpusCase& c,
            const std::vector<claims::Claim>& detected) {
          auto catalog = fragments::FragmentCatalog::Build(c.database);
          baselines::NalirBaseline nalir(&c.database, &*catalog);
          std::vector<bool> flags;
          for (const auto& claim : detected) {
            auto outcome = nalir.CheckClaim(c.document, claim);
            flags.push_back(outcome.single_value &&
                            outcome.flagged_erroneous);
          }
          attempts += nalir.stats().attempts;
          questions += nalir.stats().questions;
          translations += nalir.stats().translations;
          single += nalir.stats().single_values;
          return flags;
        },
        "paper 2.4/10.0/3.9");
    std::printf(
        "    NaLIR funnel: %zu claims -> %zu questions -> %zu translations "
        "-> %zu single values (paper: 42.1%% translated, 13.6%% single)\n",
        attempts, questions, translations, single);
  }

  std::printf("--- full system ---\n");
  RunVariant("AggChecker Automatic", core::CheckOptions{},
             "paper 70.8/36.2/47.9, 128s");
  return 0;
}
