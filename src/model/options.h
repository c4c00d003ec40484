#pragma once

#include <cstddef>

#include "util/rounding.h"

namespace aggchecker {
namespace model {

/// \brief Tuning knobs of the probabilistic model (§5) and the evaluation
/// scope (§6.1). Defaults reproduce the paper's main configuration; the
/// benchmark sweeps (Figures 12 and 13, Table 5/10 ablations) vary them.
struct ModelOptions {
  /// Assumed a-priori probability of a claim being correct. Trades recall
  /// for precision (Figure 12); the paper settles on 0.999.
  double pT = 0.999;

  /// Fragments retrieved per category per claim ("# Hits" in Table 5 /
  /// Figure 13 left).
  size_t lucene_hits = 20;

  /// Predicate-column subsets kept per claim, ranked by keyword score
  /// (bounds the candidate cross product).
  size_t max_pred_subsets = 200;

  /// Aggregation-column fragments considered per claim ("# Aggregates" in
  /// Figure 13 right).
  size_t max_agg_columns = 12;

  /// Candidate queries evaluated per claim per EM iteration: PickScope's
  /// scope (§6.1), fixed per claim instead of derived from a cost model
  /// (DESIGN.md §5).
  size_t max_eval_per_claim = 160;

  /// EM iteration cap and convergence tolerance on prior change.
  int max_em_iterations = 5;
  double convergence_tol = 1e-3;

  /// Ablations of Table 10: S_c only (both false), +E_c (eval only),
  /// +Θ (both true — the full model).
  bool use_eval_results = true;
  bool use_priors = true;

  /// Record a snapshot of the priors Θ after every EM iteration in
  /// TranslationResult::prior_trace (Table 2's convergence view).
  bool trace_priors = false;

  /// Admissible rounding function rho of Definition 1 (ablation bench
  /// compares significant-digit rounding against strict and tolerance
  /// matching).
  rounding::RoundingMode rounding_mode =
      rounding::RoundingMode::kSignificantDigits;
  double rounding_tolerance = 0.05;

  /// Additive smoothing applied to relevance scores so fragments without
  /// keyword support keep non-zero probability (claims often omit the
  /// aggregation function — §7.3). Calibrated so the evaluation-result
  /// factor (pT odds) outweighs keyword sharpness, as in the paper.
  double score_smoothing = 0.10;

  /// Threads for per-claim candidate work and cube materialization.
  /// 0 = std::thread::hardware_concurrency(); 1 = fully serial (no pool).
  /// Results are bit-identical for any value (see DESIGN.md "Concurrency
  /// contract"), so this is purely a throughput knob.
  size_t num_threads = 0;
};

}  // namespace model
}  // namespace aggchecker
