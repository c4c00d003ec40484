#include "model/translator.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>

#include "model/probe.h"
#include "model/scope.h"
#include "util/fault_injection.h"
#include "util/rounding.h"
#include "util/strings.h"
#include "util/timer.h"

namespace aggchecker {
namespace model {

namespace {

/// Compact candidate address within a claim's CandidateSpace.
uint64_t TripleKey(size_t f, size_t c, size_t s) {
  return (static_cast<uint64_t>(f) << 40) | (static_cast<uint64_t>(c) << 20) |
         static_cast<uint64_t>(s);
}

struct EvalOutcome {
  std::optional<double> result;
  bool matches = false;
  /// Synthesized from a magnitude-family probe decision (DESIGN.md §17):
  /// matches is provably false but the result itself was never computed
  /// (the top-k backfill fills it for reports).
  bool probe_no_result = false;
};

/// NaN-tolerant equality of two optional evaluation results (the verify
/// mode's disagreement test: nullopt == nullopt, NaN == NaN).
bool SameResult(const std::optional<double>& a,
                const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return *a == *b || (std::isnan(*a) && std::isnan(*b));
}

struct ScoredTriple {
  double score;
  size_t f, c, s;
};

/// Per-iteration prior factors for one claim's candidate space.
struct PriorFactors {
  std::vector<double> fn;      // per considered function
  std::vector<double> col;     // per considered column
  std::vector<double> subset;  // per predicate subset

  double of(size_t f, size_t c, size_t s) const {
    return fn[f] * col[c] * subset[s];
  }
};

PriorFactors ComputePriorFactors(const CandidateSpace& space,
                                 const Priors& priors,
                                 const fragments::FragmentCatalog& catalog) {
  PriorFactors factors;
  factors.fn.reserve(space.functions().size());
  for (const auto& f : space.functions()) {
    factors.fn.push_back(priors.fn_prior(
        catalog.fragment(fragments::FragmentType::kAggFunction, f.frag).fn));
  }
  factors.col.reserve(space.columns().size());
  for (const auto& c : space.columns()) {
    factors.col.push_back(priors.agg_col_prior(c.frag));
  }
  // Full Bernoulli restriction prior: restricted columns contribute pri,
  // unrestricted ones (1 - pri). The paper's formula drops the (1 - pri)
  // factors; at our smaller evaluation budget that simplification
  // systematically favors predicate-free candidates, so we keep the
  // complete likelihood (equivalent up to the per-claim constant
  // prod_i (1 - pri) divided out, which the simplified form ignores only
  // when comparing candidates with equal predicate sets).
  double all_unrestricted = 1.0;
  const size_t num_restrict = priors.num_restrict_components();
  for (size_t col = 0; col < num_restrict; ++col) {
    all_unrestricted *= 1.0 - priors.restrict_prior(static_cast<int>(col));
  }
  factors.subset.reserve(space.subsets().size());
  for (const auto& s : space.subsets()) {
    double p = all_unrestricted;
    for (int col : s.restrict_cols) {
      if (col < 0) continue;
      double pri = priors.restrict_prior(col);
      double complement = 1.0 - pri;
      if (complement < 1e-6) complement = 1e-6;
      p *= pri / complement;
    }
    factors.subset.push_back(p);
  }
  return factors;
}

/// Top-N valid triples by score (keyword likelihood times prior factor).
///
/// With priors enabled, the evaluation scope hedges: half the budget goes
/// to the prior-weighted ranking and half to the keyword-only ranking.
/// PickScope (§6.1) can afford tens of thousands of evaluations per claim;
/// at our smaller budget a pure prior-weighted scope can evict the true
/// query before the priors have converged, so both rankings contribute.
std::vector<ScoredTriple> SelectTop(const CandidateSpace& space,
                                    const PriorFactors& factors,
                                    bool use_priors, size_t top_n) {
  std::vector<ScoredTriple> triples;
  const size_t nf = space.functions().size();
  const size_t nc = space.columns().size();
  const size_t ns = space.subsets().size();
  triples.reserve(nf * nc * ns / 2);
  for (size_t f = 0; f < nf; ++f) {
    for (size_t c = 0; c < nc; ++c) {
      for (size_t s = 0; s < ns; ++s) {
        if (!space.Valid(f, c, s)) continue;
        double score = space.KeywordScore(f, c, s);
        if (use_priors) score *= factors.of(f, c, s);
        triples.push_back(ScoredTriple{score, f, c, s});
      }
    }
  }
  auto by_score_desc = [](const ScoredTriple& a, const ScoredTriple& b) {
    return a.score > b.score;
  };
  if (use_priors && triples.size() > top_n) {
    // Keyword-only ranking of the same triples, keeping the top half.
    std::vector<ScoredTriple> by_keyword = triples;
    for (auto& t : by_keyword) t.score = space.KeywordScore(t.f, t.c, t.s);
    size_t half = std::max<size_t>(top_n / 2, 1);
    if (by_keyword.size() > half) {
      std::nth_element(by_keyword.begin(), by_keyword.begin() + half - 1,
                       by_keyword.end(), by_score_desc);
      by_keyword.resize(half);
    }

    std::nth_element(triples.begin(), triples.begin() + top_n - 1,
                     triples.end(), by_score_desc);
    triples.resize(top_n);
    // Union the two scopes (slight budget overrun is fine); keyword-only
    // entries carry their combined score for posterior ranking.
    std::set<uint64_t> present;
    for (const auto& t : triples) present.insert(TripleKey(t.f, t.c, t.s));
    for (const auto& t : by_keyword) {
      if (!present.insert(TripleKey(t.f, t.c, t.s)).second) continue;
      ScoredTriple extra = t;
      extra.score =
          space.KeywordScore(t.f, t.c, t.s) * factors.of(t.f, t.c, t.s);
      triples.push_back(extra);
    }
    std::sort(triples.begin(), triples.end(), by_score_desc);
    return triples;
  }
  if (triples.size() > top_n) {
    std::nth_element(triples.begin(), triples.begin() + top_n - 1,
                     triples.end(), by_score_desc);
    triples.resize(top_n);
  }
  std::sort(triples.begin(), triples.end(), by_score_desc);
  return triples;
}

/// Dependency table set of one claim (TranslationResult::dependency_tables):
/// the union of tables referenced by the claim's candidate fragments (agg
/// columns and predicate columns) plus `extra` (a pinned query's tables),
/// closed under the join paths connecting them. Closure runs per connected
/// component of the FK forest — candidates mixing disconnected tables must
/// not make the whole set fall back to "no closure".
std::vector<std::string> DependencyTables(
    const db::Database& db, const CandidateSpace& space,
    const fragments::FragmentCatalog& catalog,
    const std::vector<std::string>& extra) {
  using fragments::FragmentType;
  std::set<std::string> tables;
  for (const ScoredOption& c : space.columns()) {
    const auto& frag = catalog.fragment(FragmentType::kAggColumn, c.frag);
    if (!frag.column.table.empty()) {
      tables.insert(strings::ToLower(frag.column.table));
    }
  }
  for (const PredicateSubset& s : space.subsets()) {
    for (int f : s.frags) {
      const auto& frag = catalog.fragment(FragmentType::kPredicate, f);
      if (!frag.column.table.empty()) {
        tables.insert(strings::ToLower(frag.column.table));
      }
    }
  }
  for (const std::string& t : extra) tables.insert(strings::ToLower(t));

  std::set<std::string> closure;
  std::vector<std::string> pending(tables.begin(), tables.end());
  while (!pending.empty()) {
    // Greedily collect one connected component around the last table.
    std::vector<std::string> component{pending.back()};
    pending.pop_back();
    for (size_t i = 0; i < pending.size();) {
      if (db.JoinPlan({component[0], pending[i]}).ok()) {
        component.push_back(pending[i]);
        pending.erase(pending.begin() + static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    auto plan = db.JoinPlan(component);
    if (plan.ok()) {
      closure.insert(strings::ToLower(plan->root));
      for (const auto& step : plan->steps) {
        closure.insert(strings::ToLower(step.table));
      }
    } else {
      // Cannot plan (e.g. an unknown table in a synthetic candidate): keep
      // the raw members — an under-closure beats dropping them entirely.
      for (const std::string& t : component) closure.insert(t);
    }
  }
  return std::vector<std::string>(closure.begin(), closure.end());
}

}  // namespace

db::QueryInterner::Id CandidateInterner::Encode(size_t f, size_t c, size_t s) {
  using fragments::FragmentType;
  db::AggFn fn =
      catalog_->fragment(FragmentType::kAggFunction, space_->functions()[f].frag)
          .fn;
  db::QueryInterner::Id& col = col_ids_[c];
  if (col == db::QueryInterner::kNone) {
    col = interner_->InternColumn(
        catalog_->fragment(FragmentType::kAggColumn, space_->columns()[c].frag)
            .column);
  }
  db::QueryInterner::Id& plist = predlist_ids_[s];
  if (plist == db::QueryInterner::kNone) {
    std::vector<db::QueryInterner::Id> pred_list;
    const auto& frags = space_->subsets()[s].frags;
    pred_list.reserve(frags.size());
    for (int frag : frags) {
      db::QueryInterner::Id& pid = pred_ids_[static_cast<size_t>(frag)];
      if (pid == db::QueryInterner::kNone) {
        const auto& pred = catalog_->fragment(FragmentType::kPredicate, frag);
        pid = interner_->InternPredicate(pred.column, pred.value);
      }
      pred_list.push_back(pid);
    }
    plist = interner_->InternPredList(pred_list);
  }
  return interner_->InternCandidate(fn, col, plist);
}

TranslationResult Translator::Translate(
    const std::vector<claims::Claim>& claims,
    const std::vector<claims::ClaimRelevance>& relevance,
    db::EvalEngine* engine,
    const std::vector<std::optional<db::SimpleAggregateQuery>>* pinned,
    size_t backfill_top_k) const {
  TranslationResult result;
  const size_t n = claims.size();
  result.partial.assign(n, false);
  result.recovery.assign(n, ClaimRecovery{});
  if (n == 0) return result;

  // Folds the engine's per-query recovery records and surviving failures
  // into per-claim state; `owner_of` maps a batch index to its claim.
  // Returns false only when a hard error has no owning queries to
  // quarantine (a run-level fault) — the one case that still aborts.
  auto absorb_engine_failures =
      [&](db::EvalEngine* eng, const std::function<size_t(size_t)>& owner_of) {
        for (const auto& rec : eng->ConsumeRecoveryRecords()) {
          ClaimRecovery& cr = result.recovery[owner_of(rec.query_index)];
          cr.attempts = std::max(cr.attempts, rec.attempts);
          cr.deepest_rung = std::max(cr.deepest_rung, rec.rung);
          if (rec.recovered) cr.recovered = true;
        }
        std::vector<size_t> failed = eng->ConsumeFailedQueries();
        Status batch_error = eng->ConsumeHardError();
        if (!failed.empty()) {
          // Poison claims: quarantined partials, never erroneous — the run
          // itself continues.
          for (size_t b : failed) {
            const size_t claim_idx = owner_of(b);
            result.recovery[claim_idx].quarantined = true;
            result.partial[claim_idx] = true;
          }
          return true;
        }
        if (!batch_error.ok()) {
          // An unexpected engine error with no query attribution (not
          // exhaustion, not a malformed candidate) aborts the run: its
          // nullopt results must not masquerade as "undefined aggregate"
          // and flip verdicts.
          result.status = batch_error;
          return false;
        }
        return true;
      };

  // Cooperative cancellation: the governor (if any) is scoped to this run
  // by the caller and shared with the evaluation engine.
  const ResourceGovernor* governor = engine->governor();

  // Per-claim work (space construction, candidate selection, final
  // distributions) spreads over the engine's thread pool. Each parallel
  // region writes only its own claim's slot; anything order-sensitive
  // (stats, priors, batch assembly) stays serial, so the output is
  // bit-identical for any thread count.
  ThreadPool* pool = engine->thread_pool();
  auto run_per_claim = [pool](size_t count,
                              const std::function<void(size_t)>& body) {
    if (pool != nullptr && pool->num_threads() > 1 && count > 1) {
      pool->ParallelFor(0, count, body);
    } else {
      for (size_t i = 0; i < count; ++i) body(i);
    }
  };

  auto is_pinned = [&](size_t i) {
    return pinned != nullptr && i < pinned->size() && (*pinned)[i].has_value();
  };
  // Whether a result rounds to claim i's value (an undefined one never does).
  auto matches_claim = [&](size_t i, const std::optional<double>& value) {
    return value.has_value() &&
           rounding::Matches(*value, claims[i].claimed_value(),
                             options_.rounding_mode,
                             options_.rounding_tolerance);
  };
  // Evaluate pinned queries once, up front (each a one-query batch, so
  // engine failures attribute to the pinned claim directly).
  std::vector<EvalOutcome> pinned_outcomes(n);
  for (size_t i = 0; i < n; ++i) {
    if (!is_pinned(i)) continue;
    auto value = engine->Evaluate(*(*pinned)[i]);
    pinned_outcomes[i].result = value;
    pinned_outcomes[i].matches = matches_claim(i, value);
    if (!absorb_engine_failures(engine, [i](size_t) { return i; })) {
      return result;
    }
  }

  // Build one candidate space per claim (independent per-claim work over
  // read-only db/catalog state; the catalog warmed every column dictionary
  // when it was built).
  std::vector<std::optional<CandidateSpace>> spaces(n);
  run_per_claim(n, [&](size_t i) {
    spaces[i].emplace(
        CandidateSpace::Build(*db_, *catalog_, relevance[i], options_));
  });
  for (size_t i = 0; i < n; ++i) {
    result.total_candidates += spaces[i]->TotalCandidates();
  }

  // Dependency table sets for incremental re-verification. Pinned claims
  // add their confirmed query's tables (it may sit outside the space).
  result.dependency_tables.resize(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> extra;
    if (is_pinned(i)) extra = (*pinned)[i]->ReferencedTables();
    result.dependency_tables[i] =
        DependencyTables(*db_, *spaces[i], *catalog_, extra);
  }

  // Evaluation outcomes per claim, keyed by candidate triple.
  std::vector<std::unordered_map<uint64_t, EvalOutcome>> outcomes(n);
  std::vector<std::vector<ScoredTriple>> selections(n);

  // Candidates ship to the engine as interned query ids, encoded through
  // per-claim memo tables that persist across iterations. Encoders are
  // created and used only in serial sections (the interner is not
  // thread-safe); the parallel final-distributions loop below sticks to
  // CandidateSpace::Materialize.
  db::QueryInterner& interner = engine->interner();
  std::vector<std::optional<CandidateInterner>> encoders(n);
  auto encoder_for = [&](size_t i) -> CandidateInterner& {
    if (!encoders[i].has_value()) {
      encoders[i].emplace(*spaces[i], *catalog_, interner);
    }
    return *encoders[i];
  };

  // Verification-aware probe stage (DESIGN.md §17): candidates are probed
  // once (per triple, cached across EM iterations via the outcomes map) as
  // they enter their first batch, and a decided candidate gets its outcome
  // here instead of being sent to the engine. That skips work only where
  // execution is per candidate — the naive strategy — and only under a
  // governor that limits nothing (skipping a scan would otherwise move a
  // budget's exhaustion point). In probe_verify mode decisions are
  // recorded and cross-checked but never acted on, so everything evaluates
  // for real.
  const bool probing =
      options_.probe_pruning &&
      engine->strategy() == db::EvalStrategy::kNaive &&
      (governor == nullptr || governor->limits().unlimited());
  std::optional<CandidateProber> prober;
  std::vector<rounding::MatchInterval> claim_intervals;
  if (probing) {
    prober.emplace(*db_, *catalog_);
    claim_intervals.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      claim_intervals.push_back(rounding::MatchableInterval(
          claims[i].claimed_value(), options_.rounding_mode,
          options_.rounding_tolerance));
    }
  }
  // probe_verify cross-check: fingerprint-equivalent candidates (same
  // interned id, any claim, any iteration) must never disagree on results.
  std::unordered_map<db::QueryInterner::Id, std::optional<double>>
      verify_results;

  Priors priors = Priors::Uniform(*catalog_);
  if (options_.trace_priors) result.prior_trace.push_back(priors);
  const ScopeBudget scope = PickScope(*db_, n, options_);
  const int max_iters = options_.use_priors ? options_.max_em_iterations : 1;

  for (int iter = 0; iter < max_iters; ++iter) {
    Status injected;
    AGG_FAULT_POINT_STATUS("em.iterate", injected);
    if (!injected.ok()) {
      result.status = injected;
      return result;
    }
    // Deadline/budget check between iterations: a tripped governor ends
    // refinement; whatever was evaluated so far feeds the final
    // distributions and un-evaluated claims become partial.
    if (governor != nullptr && !governor->CheckPoint().ok()) break;
    ++result.em_iterations;

    // E-step part 1: per-claim candidate selection under current priors.
    // Claims are independent here (priors are read-only until the M-step),
    // so the scoring/ranking work fans out per claim.
    run_per_claim(n, [&](size_t i) {
      if (is_pinned(i)) {
        selections[i].clear();  // fixed translation, nothing to explore
        return;
      }
      PriorFactors factors =
          ComputePriorFactors(*spaces[i], priors, *catalog_);
      selections[i] = SelectTop(*spaces[i], factors, options_.use_priors,
                                scope.eval_per_claim);
    });

    // RefineByEval: evaluate all newly selected candidates in one batch so
    // the engine can merge across claims (§6.2). A probe-decided candidate
    // takes its synthesized outcome here and stays out of the batch.
    std::vector<db::QueryInterner::Id> id_batch;
    std::vector<std::pair<size_t, uint64_t>> batch_owner;
    std::vector<ProbeDecision> verify_batch;  // probe_verify only
    for (size_t i = 0; i < n; ++i) {
      for (const ScoredTriple& t : selections[i]) {
        uint64_t key = TripleKey(t.f, t.c, t.s);
        if (outcomes[i].count(key) > 0) continue;
        ++result.queries_evaluated;
        // Inserting reserves the triple, so it is never enqueued twice.
        EvalOutcome& outcome = outcomes[i][key];
        ProbeDecision d;
        if (probing) {
          Timer probe_timer;
          d = prober->Probe(*spaces[i], t.f, t.c, t.s, claim_intervals[i],
                            &result.probe_stats);
          result.probe_stats.probe_seconds += probe_timer.ElapsedSeconds();
        }
        if (d.decided && !options_.probe_verify) {
          // The magnitude family leaves known_result empty: no result,
          // provably no match.
          outcome.result = d.known_result;
          outcome.matches = matches_claim(i, outcome.result);
          outcome.probe_no_result = d.no_result;
          continue;
        }
        id_batch.push_back(encoder_for(i).Encode(t.f, t.c, t.s));
        if (probing && options_.probe_verify) verify_batch.push_back(d);
        batch_owner.emplace_back(i, key);
      }
    }
    if (!batch_owner.empty()) {
      auto results = engine->EvaluateInterned(id_batch);
      if (!absorb_engine_failures(engine, [&](size_t b) {
            return batch_owner[std::min(b, batch_owner.size() - 1)].first;
          })) {
        return result;
      }
      for (size_t b = 0; b < batch_owner.size(); ++b) {
        auto [claim_idx, key] = batch_owner[b];
        if (!verify_batch.empty()) {
          // Consistency: fingerprint-equivalent candidates must agree.
          auto [vit, fresh] = verify_results.emplace(id_batch[b], results[b]);
          if (!fresh && !SameResult(vit->second, results[b])) {
            ++result.probe_stats.probe_conflicts;
          }
          const ProbeDecision& pd = verify_batch[b];
          // Soundness: the synthesized outcome must agree with the real
          // one — the exact result for the empty-domain family, a
          // non-matching result for the magnitude family.
          if (pd.decided && (pd.no_result
                                 ? matches_claim(claim_idx, results[b])
                                 : !SameResult(pd.known_result, results[b]))) {
            ++result.probe_stats.probe_conflicts;
          }
        }
        EvalOutcome& outcome = outcomes[claim_idx][key];
        outcome.result = results[b];
        outcome.matches = matches_claim(claim_idx, results[b]);
      }
    }

    // Stop refining once the budget is spent — the M-step would maximize
    // over aborted (nullopt) evaluations and corrupt the priors.
    if (governor != nullptr && governor->exhausted()) break;

    if (!options_.use_priors) break;

    // M-step: maximum-likelihood query per claim, then re-estimate priors.
    std::vector<db::SimpleAggregateQuery> ml_queries;
    ml_queries.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (is_pinned(i)) {
        ml_queries.push_back(*(*pinned)[i]);
        continue;
      }
      // Quarantined claims sit out the maximization: their unevaluated
      // (nullopt) outcomes would bias the priors toward whatever happened
      // to fail, poisoning every other claim's translation.
      if (result.recovery[i].quarantined) continue;
      const ScoredTriple* best = nullptr;
      double best_post = -1;
      for (const ScoredTriple& t : selections[i]) {
        const EvalOutcome& o = outcomes[i].at(TripleKey(t.f, t.c, t.s));
        double post = t.score;
        if (options_.use_eval_results) {
          post *= o.matches ? options_.pT : (1.0 - options_.pT);
        }
        if (post > best_post) {
          best_post = post;
          best = &t;
        }
      }
      if (best != nullptr) {
        // The interned materialization is content-identical to the space's
        // (same catalog fragments), so the priors see the same queries.
        ml_queries.push_back(interner.Materialize(
            encoder_for(i).Encode(best->f, best->c, best->s)));
      }
    }
    Priors next = Priors::FromMlQueries(ml_queries, *catalog_);
    double delta = next.MaxDelta(priors);
    priors = next;
    if (options_.trace_priors) result.prior_trace.push_back(priors);
    if (delta < options_.convergence_tol) break;
  }

  // Graceful degradation: under an exhausted governor, any claim whose
  // selected candidates were not all evaluated to a concrete result is
  // partial. (A nullopt outcome in an exhausted run is indistinguishable
  // from an aborted scan, so the marking is conservative — partial, never
  // erroneous.)
  if (governor != nullptr && governor->exhausted()) {
    for (size_t i = 0; i < n; ++i) {
      if (is_pinned(i)) {
        if (!pinned_outcomes[i].result.has_value()) result.partial[i] = true;
        continue;
      }
      if (selections[i].empty()) {
        result.partial[i] = true;
        continue;
      }
      for (const ScoredTriple& t : selections[i]) {
        auto it = outcomes[i].find(TripleKey(t.f, t.c, t.s));
        if (it == outcomes[i].end() || !it->second.result.has_value()) {
          result.partial[i] = true;
          break;
        }
      }
    }
  }

  // Final distributions from the last selection round. Per-claim and
  // independent; each claim's posterior sum runs in its own fixed
  // selection order, so floating-point results do not depend on threads.
  result.distributions.resize(n);
  run_per_claim(n, [&](size_t i) {
    ClaimDistribution& dist = result.distributions[i];
    dist.total_candidates = spaces[i]->TotalCandidates();
    if (is_pinned(i)) {
      // User-confirmed translation: a point mass.
      RankedCandidate cand;
      cand.query = *(*pinned)[i];
      cand.probability = 1.0;
      cand.result = pinned_outcomes[i].result;
      cand.matches = pinned_outcomes[i].matches;
      dist.ranked.push_back(std::move(cand));
      return;
    }
    PriorFactors factors = ComputePriorFactors(*spaces[i], priors, *catalog_);
    double total = 0;
    for (const ScoredTriple& t : selections[i]) {
      const EvalOutcome& o = outcomes[i].at(TripleKey(t.f, t.c, t.s));
      RankedCandidate cand;
      cand.query = spaces[i]->Materialize(t.f, t.c, t.s, *catalog_);
      cand.keyword_score = spaces[i]->KeywordScore(t.f, t.c, t.s);
      cand.prior = factors.of(t.f, t.c, t.s);
      cand.result = o.result;
      cand.matches = o.matches;
      cand.probe_decided = o.probe_no_result;
      double post = cand.keyword_score;
      if (options_.use_priors) post *= cand.prior;
      if (options_.use_eval_results) {
        post *= o.matches ? options_.pT : (1.0 - options_.pT);
      }
      cand.probability = post;
      total += post;
      dist.ranked.push_back(std::move(cand));
    }
    if (total > 0) {
      for (auto& cand : dist.ranked) cand.probability /= total;
    }
    std::sort(dist.ranked.begin(), dist.ranked.end(),
              [](const RankedCandidate& a, const RankedCandidate& b) {
                return a.probability > b.probability;
              });
  });

  // Top-k backfill (DESIGN.md §17): magnitude-pruned candidates that made
  // it into the reported head of a distribution carry no result; evaluate
  // them for real so reports show actual values. Off-ledger by contract:
  // the governor is detached, so the backfill charges nothing, and the
  // naive strategy publishes no cube slices, so later claims and re-checks
  // see identical state either way.
  if (probing && !options_.probe_verify) {
    std::vector<db::QueryInterner::Id> back_ids;
    std::vector<std::pair<size_t, size_t>> back_owner;  // (claim, rank)
    for (size_t i = 0; i < n; ++i) {
      if (is_pinned(i)) continue;
      ClaimDistribution& dist = result.distributions[i];
      size_t limit = std::min(backfill_top_k, dist.ranked.size());
      for (size_t r = 0; r < limit; ++r) {
        const RankedCandidate& cand = dist.ranked[r];
        if (!cand.probe_decided || cand.result.has_value()) continue;
        back_ids.push_back(interner.InternQuery(cand.query));
        back_owner.emplace_back(i, r);
      }
    }
    if (!back_owner.empty()) {
      Timer backfill_timer;
      engine->SetGovernor(nullptr);
      auto back = engine->EvaluateInterned(back_ids);
      engine->SetGovernor(governor);
      // The backfill is best-effort cosmetics: failures leave the (already
      // correct) probe verdict in place, and must not leak into this run's
      // recovery/error ledgers.
      (void)engine->ConsumeRecoveryRecords();
      (void)engine->ConsumeFailedQueries();
      (void)engine->ConsumeHardError();
      for (size_t b = 0; b < back.size(); ++b) {
        auto [claim_idx, rank] = back_owner[b];
        RankedCandidate& cand = result.distributions[claim_idx].ranked[rank];
        cand.result = back[b];
        cand.matches = matches_claim(claim_idx, back[b]);
        ++result.probe_stats.backfilled;
      }
      result.probe_stats.probe_seconds += backfill_timer.ElapsedSeconds();
    }
  }

  // A claim counts as recovered only when every one of its failing queries
  // healed; a later quarantine overrides earlier successes.
  for (ClaimRecovery& cr : result.recovery) {
    if (cr.quarantined) cr.recovered = false;
  }
  return result;
}

}  // namespace model
}  // namespace aggchecker
