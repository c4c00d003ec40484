#include "model/translator.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "util/fault_injection.h"
#include "util/rounding.h"
#include "util/strings.h"

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
};

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

/// Dependency table set of one claim (ClaimTranslation::dependency_tables):
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

/// One claim's working state through the EM loop; its output is the
/// claim's ClaimTranslation.
struct ClaimState {
  /// The user-confirmed query with its outcome, as a point mass.
  std::optional<RankedCandidate> pinned;
  std::optional<CandidateSpace> space;
  /// Encodes candidates to interned ids for the engine; points into `space`.
  std::optional<CandidateInterner> encoder;
  std::vector<ScoredTriple> selection;  ///< the latest selection round
  /// Every candidate ever enqueued, keyed by TripleKey.
  std::unordered_map<uint64_t, EvalOutcome> outcomes;
};

/// One Translate call: its inputs, per-claim states and output, and the
/// stages Translator::Translate runs over them. Per-claim stages (space
/// build, selection, ranking) fan out over the engine's pool and write only
/// their own claim's state and record; everything order-sensitive (batch
/// assembly, counters, priors) stays serial, so the output is bit-identical
/// for any thread count.
struct EmRun {
  const db::Database& db;
  const fragments::FragmentCatalog& catalog;
  const ModelOptions& options;
  const std::vector<claims::Claim>& claims;
  db::EvalEngine* engine;
  TranslationResult& result;
  /// Sized once, with `result.per_claim`: each encoder points into its own
  /// claim's space.
  std::vector<ClaimState> states;

  /// Evaluates each pinned query once, up front, as a one-query batch so
  /// engine failures attribute to its claim. False on a run-level error.
  bool EvaluatePinned(
      const std::vector<std::optional<db::SimpleAggregateQuery>>* pinned) {
    const size_t n = pinned == nullptr ? 0 : pinned->size();
    for (size_t i = 0; i < std::min(n, states.size()); ++i) {
      if (!(*pinned)[i].has_value()) continue;
      RankedCandidate& cand = states[i].pinned.emplace();
      cand.query = *(*pinned)[i];
      cand.probability = 1.0;
      cand.result = engine->Evaluate(cand.query);
      cand.matches = Matches(i, cand.result);
      if (!AbsorbFailures([i](size_t) { return i; })) return false;
    }
    return true;
  }

  /// Builds each claim's candidate space over read-only db and catalog
  /// state (the catalog warmed every column dictionary when it was built),
  /// its encoder, and its dependency tables.
  void BuildSpaces(const std::vector<claims::ClaimRelevance>& relevance) {
    RunIndexed(engine->thread_pool(), states.size(), [&](size_t i) {
      ClaimState& s = states[i];
      ClaimTranslation& out = result.per_claim[i];
      s.space.emplace(
          CandidateSpace::Build(db, catalog, relevance[i], options));
      s.encoder.emplace(*s.space, catalog, engine->interner());
      out.total_candidates = s.space->TotalCandidates();
      // A pinned query may sit outside the space.
      out.dependency_tables = DependencyTables(
          db, *s.space, catalog,
          s.pinned ? s.pinned->query.ReferencedTables()
                   : std::vector<std::string>{});
    });
    for (const ClaimTranslation& out : result.per_claim) {
      result.total_candidates += out.total_candidates;
    }
  }

  /// E-step, part 1: each unpinned claim's candidates under `priors`.
  void Select(const Priors& priors) {
    RunIndexed(engine->thread_pool(), states.size(), [&](size_t i) {
      ClaimState& s = states[i];
      if (s.pinned) return;  // fixed translation, nothing to explore
      s.selection =
          SelectTop(*s.space, ComputePriorFactors(*s.space, priors, catalog),
                    options.use_priors, options.max_eval_per_claim);
    });
  }

  /// E-step, part 2 (RefineByEval): evaluates every newly selected
  /// candidate in one batch, so the engine can merge across claims (§6.2).
  /// False on a run-level error.
  bool EvaluateSelected() {
    std::vector<db::QueryInterner::Id> id_batch;
    std::vector<std::pair<size_t, uint64_t>> batch_owner;
    for (size_t i = 0; i < states.size(); ++i) {
      ClaimState& s = states[i];
      for (const ScoredTriple& t : s.selection) {
        uint64_t key = TripleKey(t.f, t.c, t.s);
        // Inserting reserves the triple, so it is never enqueued twice.
        if (!s.outcomes.try_emplace(key).second) continue;
        ++result.queries_evaluated;
        id_batch.push_back(s.encoder->Encode(t.f, t.c, t.s));
        batch_owner.emplace_back(i, key);
      }
    }
    if (batch_owner.empty()) return true;
    auto results = engine->EvaluateInterned(id_batch);
    if (!AbsorbFailures([&](size_t b) {
          return batch_owner[std::min(b, batch_owner.size() - 1)].first;
        })) {
      return false;
    }
    for (size_t b = 0; b < batch_owner.size(); ++b) {
      auto [claim_idx, key] = batch_owner[b];
      EvalOutcome& outcome = states[claim_idx].outcomes[key];
      outcome.result = results[b];
      outcome.matches = Matches(claim_idx, results[b]);
    }
    return true;
  }

  /// M-step: the maximum-likelihood query per claim, then the priors
  /// re-estimated from them.
  Priors MStep() {
    std::vector<db::SimpleAggregateQuery> ml_queries;
    ml_queries.reserve(states.size());
    for (size_t i = 0; i < states.size(); ++i) {
      ClaimState& s = states[i];
      if (s.pinned) {
        ml_queries.push_back(s.pinned->query);
        continue;
      }
      // Quarantined claims sit out the maximization: their unevaluated
      // (nullopt) outcomes would bias the priors toward whatever happened
      // to fail, poisoning every other claim's translation.
      if (result.per_claim[i].recovery.quarantined) continue;
      const ScoredTriple* best = nullptr;
      double best_post = -1;
      for (const ScoredTriple& t : s.selection) {
        const EvalOutcome& o = s.outcomes.at(TripleKey(t.f, t.c, t.s));
        double post = t.score;
        if (options.use_eval_results) {
          post *= o.matches ? options.pT : (1.0 - options.pT);
        }
        if (post > best_post) {
          best_post = post;
          best = &t;
        }
      }
      if (best != nullptr) {
        // The interned materialization is content-identical to the space's
        // (same catalog fragments), so the priors see the same queries.
        ml_queries.push_back(engine->interner().Materialize(
            s.encoder->Encode(best->f, best->c, best->s)));
      }
    }
    return Priors::FromMlQueries(ml_queries, catalog);
  }

  /// Graceful degradation under an exhausted governor: any claim whose
  /// selected candidates were not all evaluated to a concrete result is
  /// partial. (A nullopt outcome in an exhausted run is indistinguishable
  /// from an aborted scan, so the marking is conservative — partial, never
  /// erroneous.)
  void MarkPartial() {
    for (size_t i = 0; i < states.size(); ++i) {
      const ClaimState& s = states[i];
      auto evaluated = [&](const ScoredTriple& t) {
        auto it = s.outcomes.find(TripleKey(t.f, t.c, t.s));
        return it != s.outcomes.end() && it->second.result.has_value();
      };
      const bool complete =
          s.pinned ? s.pinned->result.has_value()
                   : !s.selection.empty() &&
                         std::all_of(s.selection.begin(), s.selection.end(),
                                     evaluated);
      if (!complete) result.per_claim[i].partial = true;
    }
  }

  /// Ranks each claim's last selection round under the final priors into
  /// its record, materializing only the `top_k` best candidates.
  void Rank(const Priors& priors, size_t top_k) {
    RunIndexed(engine->thread_pool(), states.size(), [&](size_t i) {
      const ClaimState& s = states[i];
      ClaimTranslation& out = result.per_claim[i];
      // A claim counts as recovered only when every one of its failing
      // queries healed; a later quarantine overrides earlier successes.
      if (out.recovery.quarantined) out.recovery.recovered = false;
      if (s.pinned) {
        out.correctness_probability = s.pinned->matches ? 1.0 : 0.0;
        out.top_matches = s.pinned->matches;
        if (top_k > 0) out.top.push_back(*s.pinned);
        return;
      }
      // Posteriors in selection order, normalized by their sum in that
      // order, so the floating-point results do not depend on threads.
      PriorFactors factors = ComputePriorFactors(*s.space, priors, catalog);
      struct Posterior {
        double probability;
        const ScoredTriple* triple;
        const EvalOutcome* outcome;
      };
      std::vector<Posterior> ranked;
      ranked.reserve(s.selection.size());
      double total = 0;
      for (const ScoredTriple& t : s.selection) {
        const EvalOutcome& o = s.outcomes.at(TripleKey(t.f, t.c, t.s));
        double post = s.space->KeywordScore(t.f, t.c, t.s);
        if (options.use_priors) post *= factors.of(t.f, t.c, t.s);
        if (options.use_eval_results) {
          post *= o.matches ? options.pT : (1.0 - options.pT);
        }
        ranked.push_back(Posterior{post, &t, &o});
        total += post;
      }
      if (total > 0) {
        for (Posterior& p : ranked) p.probability /= total;
      }
      // The comparator reads only the probability, so std::sort permutes
      // these records exactly as it would the full candidates. Not
      // partial_sort: ties are common, and it would order them differently.
      std::sort(ranked.begin(), ranked.end(),
                [](const Posterior& a, const Posterior& b) {
                  return a.probability > b.probability;
                });
      for (const Posterior& p : ranked) {
        if (p.outcome->matches) out.correctness_probability += p.probability;
      }
      out.top_matches = !ranked.empty() && ranked[0].outcome->matches;
      const size_t keep = std::min(top_k, ranked.size());
      out.top.reserve(keep);
      for (size_t r = 0; r < keep; ++r) {
        const ScoredTriple& t = *ranked[r].triple;
        out.top.push_back(RankedCandidate{
            s.space->Materialize(t.f, t.c, t.s, catalog),
            ranked[r].probability, ranked[r].outcome->result,
            ranked[r].outcome->matches, s.space->KeywordScore(t.f, t.c, t.s),
            factors.of(t.f, t.c, t.s)});
      }
    });
  }

  /// Whether a result rounds to claim i's value (an undefined one never
  /// does).
  bool Matches(size_t i, const std::optional<double>& value) const {
    return value.has_value() &&
           rounding::Matches(*value, claims[i].claimed_value(),
                             options.rounding_mode,
                             options.rounding_tolerance);
  }

  /// Folds the engine's per-query recovery records and surviving failures
  /// into the owning claims' records; `owner_of` maps a batch index to its
  /// claim. Returns false only when a hard error has no owning queries to
  /// quarantine (a run-level fault) — the one case that still aborts.
  bool AbsorbFailures(const std::function<size_t(size_t)>& owner_of) {
    for (const auto& rec : engine->ConsumeRecoveryRecords()) {
      ClaimRecovery& cr =
          result.per_claim[owner_of(rec.query_index)].recovery;
      cr.attempts = std::max(cr.attempts, rec.attempts);
      cr.deepest_rung = std::max(cr.deepest_rung, rec.rung);
      if (rec.recovered) cr.recovered = true;
    }
    std::vector<size_t> failed = engine->ConsumeFailedQueries();
    Status batch_error = engine->ConsumeHardError();
    if (!failed.empty()) {
      // Poison claims: quarantined partials, never erroneous — the run
      // itself continues.
      for (size_t b : failed) {
        ClaimTranslation& out = result.per_claim[owner_of(b)];
        out.recovery.quarantined = true;
        out.partial = true;
      }
      return true;
    }
    if (!batch_error.ok()) {
      // An unexpected engine error with no query attribution (not
      // exhaustion, not a malformed candidate) aborts the run: its nullopt
      // results must not masquerade as "undefined aggregate" and flip
      // verdicts.
      result.status = batch_error;
      return false;
    }
    return true;
  }
};

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
    db::EvalEngine* engine, size_t top_k,
    const std::vector<std::optional<db::SimpleAggregateQuery>>* pinned) const {
  TranslationResult result;
  if (claims.empty()) return result;
  result.per_claim.resize(claims.size());
  EmRun run{*db_, *catalog_, options_, claims, engine, result,
            std::vector<ClaimState>(claims.size())};
  if (!run.EvaluatePinned(pinned)) return result;
  run.BuildSpaces(relevance);

  // Cooperative cancellation: the governor (if any) is scoped to this run
  // by the caller and shared with the evaluation engine.
  const ResourceGovernor* governor = engine->governor();
  Priors priors = Priors::Uniform(*catalog_);
  if (options_.trace_priors) result.prior_trace.push_back(priors);
  const int max_iters = options_.use_priors ? options_.max_em_iterations : 1;
  for (int iter = 0; iter < max_iters; ++iter) {
    Status injected;
    AGG_FAULT_POINT_STATUS("em.iterate", injected);
    if (!injected.ok()) {
      result.status = injected;
      return result;
    }
    // Deadline/budget check between iterations: a tripped governor ends
    // refinement; whatever was evaluated so far feeds the ranking and
    // un-evaluated claims become partial.
    if (governor != nullptr && !governor->CheckPoint().ok()) break;
    ++result.em_iterations;
    run.Select(priors);
    if (!run.EvaluateSelected()) return result;
    // Stop refining once the budget is spent — the M-step would maximize
    // over aborted (nullopt) evaluations and corrupt the priors.
    if (governor != nullptr && governor->exhausted()) break;
    if (!options_.use_priors) break;
    Priors next = run.MStep();
    double delta = next.MaxDelta(priors);
    priors = std::move(next);
    if (options_.trace_priors) result.prior_trace.push_back(priors);
    if (delta < options_.convergence_tol) break;
  }
  if (governor != nullptr && governor->exhausted()) run.MarkPartial();
  run.Rank(priors, top_k);
  return result;
}

}  // namespace model
}  // namespace aggchecker
