#pragma once

#include <optional>
#include <vector>

#include "claims/claim.h"
#include "claims/relevance_scorer.h"
#include "db/eval_engine.h"
#include "fragments/catalog.h"
#include "model/candidate_space.h"
#include "model/options.h"
#include "model/priors.h"
#include "model/probe.h"

namespace aggchecker {
namespace model {

/// \brief A candidate query with its refined probability — one entry of the
/// distribution Q_c the system outputs per claim (Definition 3).
struct RankedCandidate {
  db::SimpleAggregateQuery query;
  double probability = 0.0;      ///< normalized posterior
  std::optional<double> result;  ///< evaluation result (nullopt = undefined)
  bool matches = false;          ///< result rounds to the claimed value
  double keyword_score = 0.0;    ///< Pr(S_c | Q_c) factor
  double prior = 0.0;            ///< Pr(Q_c) factor under the final priors
  /// The magnitude probe decided this candidate without evaluating it
  /// (DESIGN.md §17): `matches` is provably false but `result` was never
  /// computed. The top-k backfill re-evaluates flagged candidates that
  /// reach the report, filling `result` with the real value.
  bool probe_decided = false;
};

/// \brief Distribution over query candidates for one claim, ranked by
/// probability (descending).
struct ClaimDistribution {
  std::vector<RankedCandidate> ranked;
  size_t total_candidates = 0;  ///< size of the full candidate space

  const RankedCandidate* top() const {
    return ranked.empty() ? nullptr : &ranked[0];
  }
};

/// \brief One claim's trip through the engine's self-healing layer
/// (DESIGN.md §13), folded over the recovery records of every candidate
/// query the claim owned.
struct ClaimRecovery {
  uint32_t attempts = 0;      ///< max evaluation attempts over its queries
  uint32_t deepest_rung = 0;  ///< deepest ladder rung engaged (0 or 1)
  bool recovered = false;     ///< entered recovery and every query healed
  bool quarantined = false;   ///< some query failed on every rung; the
                              ///< claim degrades to a partial verdict
  bool engaged() const { return attempts > 0; }
  /// "primary" / "reference".
  const char* final_path() const {
    return db::EvalEngine::RecoveryRungName(deepest_rung);
  }
};

/// \brief Output of the expectation-maximization translation.
struct TranslationResult {
  std::vector<ClaimDistribution> distributions;  ///< one per claim
  int em_iterations = 0;
  size_t total_candidates = 0;   ///< across all claims
  size_t queries_evaluated = 0;  ///< distinct candidate queries executed
  /// Θ snapshots when ModelOptions::trace_priors is set: the uniform
  /// initialization followed by the priors after each M-step (Table 2).
  std::vector<Priors> prior_trace;
  /// Non-OK when translation aborted on a hard error (e.g. an injected
  /// fault); distributions are then incomplete and callers must propagate
  /// the status instead of the result. Governor stops do NOT set this —
  /// they degrade into per-claim `partial` flags.
  Status status;
  /// One flag per claim: true when the evaluation budget ran out before the
  /// claim's candidates were (fully) evaluated. Partial claims keep their
  /// best-effort distribution but must never be flagged erroneous.
  std::vector<bool> partial;
  /// One record per claim. Poison claims — candidates that hard-fail on
  /// every ladder rung — are quarantined (and marked partial) instead of
  /// aborting the run, so one bad claim can never starve the batch; see
  /// ClaimRecovery. `status` above is reserved for run-level failures with
  /// no owning queries to quarantine.
  std::vector<ClaimRecovery> recovery;
  /// One entry per claim: every base table (lower-cased, sorted, unique)
  /// any of the claim's candidate queries can read, closed under the join
  /// paths connecting them — intermediate join-path tables included. The
  /// dependency domain for incremental re-verification (DESIGN.md §16): a
  /// claim needs re-checking iff some table here changed its data version.
  /// An over-approximation (the whole candidate space, not just the top
  /// translation) — extra re-checks are sound, missed invalidations are
  /// not. Empty for claims whose space references no table.
  std::vector<std::vector<std::string>> dependency_tables;
  /// Verification-aware probe counters (DESIGN.md §17); all-zero unless
  /// ModelOptions::probe_pruning is on, the engine runs the naive strategy
  /// and the governor (if any) is unlimited.
  ProbeStats probe_stats;
};

/// \brief Per-claim encoder from candidate triples (f, c, s) to interned
/// query ids, the form in which candidates ship to the engine.
///
/// A claim's CandidateSpace is fixed after Build, so every fragment the
/// claim can ever select is interned at most once and memoized by its
/// position: per-column and per-subset ids persist across EM iterations,
/// which is what makes re-selection of a candidate in iteration k a pure
/// integer lookup instead of a SimpleAggregateQuery materialization.
///
/// Not thread-safe (it writes memo tables and the shared interner); the
/// translator only encodes from serial sections (batch assembly, M-step).
class CandidateInterner {
 public:
  CandidateInterner(const CandidateSpace& space,
                    const fragments::FragmentCatalog& catalog,
                    db::QueryInterner& interner)
      : space_(&space),
        catalog_(&catalog),
        interner_(&interner),
        col_ids_(space.columns().size(), db::QueryInterner::kNone),
        predlist_ids_(space.subsets().size(), db::QueryInterner::kNone),
        pred_ids_(
            catalog.fragments(fragments::FragmentType::kPredicate).size(),
            db::QueryInterner::kNone) {}

  /// Interned query id of candidate (f, c, s). Identical to
  /// interner.InternQuery(space.Materialize(f, c, s, catalog)) — the
  /// round-trip property test pins this down — without building the query.
  db::QueryInterner::Id Encode(size_t f, size_t c, size_t s);

 private:
  const CandidateSpace* space_;
  const fragments::FragmentCatalog* catalog_;
  db::QueryInterner* interner_;
  std::vector<db::QueryInterner::Id> col_ids_;       ///< per space column
  std::vector<db::QueryInterner::Id> predlist_ids_;  ///< per space subset
  std::vector<db::QueryInterner::Id> pred_ids_;      ///< per catalog pred frag
};

/// \brief Implements Algorithm 3 (QueryAndLearn): learns document-specific
/// priors while refining per-claim query distributions through candidate
/// evaluations (Algorithm 4's RefineByEval runs on the EvalEngine).
class Translator {
 public:
  Translator(const db::Database* db,
             const fragments::FragmentCatalog* catalog, ModelOptions options)
      : db_(db), catalog_(catalog), options_(options) {}

  /// Translates all claims given their relevance scores. The engine's cache
  /// persists across EM iterations (and across documents if shared).
  ///
  /// `pinned` (optional, one entry per claim) fixes a claim's translation
  /// to a user-confirmed query: pinned claims contribute their query to the
  /// prior maximization in every iteration and their distribution becomes a
  /// point mass — the mechanism behind semi-automated checking, where "a
  /// clear signal received for one claim resolves ambiguities for many
  /// others" (§1).
  ///
  /// `backfill_top_k` is the reported depth: probe-decided candidates
  /// ranked within the first `backfill_top_k` of a distribution are
  /// re-evaluated after translation so they show real results. The
  /// backfill runs off-ledger: no governor charges, no new cache entries.
  TranslationResult Translate(
      const std::vector<claims::Claim>& claims,
      const std::vector<claims::ClaimRelevance>& relevance,
      db::EvalEngine* engine,
      const std::vector<std::optional<db::SimpleAggregateQuery>>* pinned =
          nullptr,
      size_t backfill_top_k = 10) const;

  const ModelOptions& options() const { return options_; }

 private:
  const db::Database* db_;
  const fragments::FragmentCatalog* catalog_;
  ModelOptions options_;
};

}  // namespace model
}  // namespace aggchecker
