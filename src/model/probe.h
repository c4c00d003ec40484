#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "db/database.h"
#include "fragments/catalog.h"
#include "model/candidate_space.h"
#include "util/rounding.h"

namespace aggchecker {
namespace model {

/// \brief Counters of the verification-aware probe stage (DESIGN.md §17),
/// folded into TranslationResult / CheckReport and the probe bench.
struct ProbeStats {
  size_t candidates_probed = 0;  ///< candidates the probe ladder inspected
  size_t candidates_pruned = 0;  ///< decided without evaluation (all families)
  size_t pruned_domain = 0;      ///< empty-domain family (absent literal)
  size_t pruned_magnitude = 0;   ///< magnitude family (unattainable claim)
  /// probe_verify mode only: decided candidates whose synthesized outcome
  /// disagreed with the real evaluation. Must be zero — a conflict means an
  /// unsound probe bound.
  size_t probe_conflicts = 0;
  size_t backfilled = 0;     ///< top-k results re-evaluated for reporting
  double probe_seconds = 0;  ///< wall time spent probing

  void Add(const ProbeStats& other) {
    candidates_probed += other.candidates_probed;
    candidates_pruned += other.candidates_pruned;
    pruned_domain += other.pruned_domain;
    pruned_magnitude += other.pruned_magnitude;
    probe_conflicts += other.probe_conflicts;
    backfilled += other.backfilled;
    probe_seconds += other.probe_seconds;
  }
};

/// \brief Probe verdict for one candidate query.
///
/// Two decided families, with different evidence strength:
///  - empty-domain (`decided && !no_result`): some predicate literal cannot
///    match any row, so the candidate's exact result is known without
///    evaluation (`known_result`, mirroring AnswerFromCube's semantics for a
///    zero-row group: 0 for count-like aggregates, undefined for the rest).
///  - magnitude (`decided && no_result`): the result is unknown, but the
///    aggregate's attainable range (from ColumnStats) cannot intersect the
///    set of values that round to the claim, so `matches` is provably false.
///
/// Undecided candidates (`decided == false`) evaluate normally. A faulted
/// probe ("translator.probe" fault point) always degrades to undecided —
/// never a wrong kill.
struct ProbeDecision {
  bool decided = false;
  bool no_result = false;  ///< magnitude family: matches=false, result unknown
  std::optional<double> known_result;  ///< empty-domain family only
};

/// \brief Pre-evaluation candidate prober: kills candidates whose predicate
/// literals fall outside the column domain or whose claimed value is outside
/// the aggregate's attainable bounds (DESIGN.md §17).
///
/// One instance per Translate call. Per-fragment probe state (literal
/// absence, column statistics handles) is cached across claims and EM
/// iterations by catalog fragment index, so each fragment pays its
/// dictionary/stats lookup once per document, not once per candidate.
///
/// Soundness contract (the pruning-on/off differential tests pin this
/// down): a decided candidate's synthesized outcome is bit-identical to
/// what evaluating it would produce — the exact result for the empty-domain
/// family, `matches == false` for the magnitude family. Probes only consult
/// ColumnStats and column dictionaries, both invalidated by ingestion, so a
/// stale prune cannot survive a data-version bump.
///
/// Not thread-safe (mutates memo tables); the translator probes only from
/// its serial batch-assembly section.
class CandidateProber {
 public:
  CandidateProber(const db::Database& db,
                  const fragments::FragmentCatalog& catalog);

  /// Probes candidate (f, c, s) of `space` against `claim_interval` (the
  /// claimed value's matchable interval, see rounding::MatchableInterval).
  ProbeDecision Probe(const CandidateSpace& space, size_t f, size_t c,
                      size_t s, const rounding::MatchInterval& claim_interval,
                      ProbeStats* stats);

 private:
  /// Cached absence state of one predicate fragment's literal.
  enum class PredState : uint8_t {
    kUnknown = 0,  ///< not probed yet
    kPresent,      ///< literal in the column dictionary (or unresolvable)
    kAbsent,       ///< literal provably matches zero rows
  };

  /// Cached per-aggregation-column-fragment probe inputs.
  struct ColumnInfo {
    bool resolved = false;
    const db::Column* column = nullptr;  ///< null for "*" or unknown columns
    size_t table_rows = 0;               ///< rows of the fragment's table
  };

  PredState PredProbe(int frag_index);
  const ColumnInfo& ColumnProbe(int frag_index);

  const db::Database* db_;
  const fragments::FragmentCatalog* catalog_;
  std::vector<PredState> pred_state_;   ///< per kPredicate fragment
  std::vector<ColumnInfo> col_info_;    ///< per kAggColumn fragment
};

}  // namespace model
}  // namespace aggchecker
