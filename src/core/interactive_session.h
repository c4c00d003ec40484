#pragma once

#include <optional>
#include <vector>

#include "core/aggchecker.h"

namespace aggchecker {
namespace core {

/// \brief Semi-automated checking session (Definition 3 / Figure 3).
///
/// Wraps one document's check and lets a user take the corrective actions
/// of the AggChecker UI: confirming the top query, picking another
/// candidate from the top-k list (Figure 3(c)), or assembling a custom
/// query (Figure 3(d)). Confirmed translations are *pinned*; Refresh()
/// re-runs the checker's pipeline (the one Check uses) with pinned claims
/// fixed, so the signal propagates through the learned priors to the
/// still-unresolved claims ("the information gained from easy cases
/// spreads across claims", Example 5).
///
/// \code
///   auto session = core::InteractiveSession::Start(&checker, &doc);
///   session->SelectCandidate(2, 3);      // claim 2: pick 3rd candidate
///   session->Refresh();                  // propagate to other claims
///   const core::CheckReport& r = session->report();
/// \endcode
class InteractiveSession {
 public:
  /// Runs the initial automated pass.
  static Result<InteractiveSession> Start(AggChecker* checker,
                                          const text::TextDocument* doc);

  const CheckReport& report() const { return report_; }
  size_t num_claims() const { return detected_.size(); }

  /// Pins claim `claim_idx` to its candidate at `rank` (1-based) in the
  /// current report. Rank 1 confirms the tentative translation.
  Status SelectCandidate(size_t claim_idx, size_t rank);

  /// Pins claim `claim_idx` to a user-assembled query; the query is
  /// validated against the schema first.
  Status SetCustomQuery(size_t claim_idx, db::SimpleAggregateQuery query);

  /// Removes a pin; the claim becomes automatic again on the next Refresh.
  Status ClearCorrection(size_t claim_idx);

  /// Marks a detected number as not actually being a claim (the paper's
  /// "user feedback to prune spurious matches", §3). Dismissed claims drop
  /// out of the report and the prior maximization on the next Refresh.
  Status DismissClaim(size_t claim_idx);
  bool IsDismissed(size_t claim_idx) const {
    return claim_idx < dismissed_.size() && dismissed_[claim_idx];
  }

  bool IsPinned(size_t claim_idx) const {
    return claim_idx < pinned_.size() && pinned_[claim_idx].has_value();
  }
  size_t NumPinned() const;

  /// Re-translates with the current pins; updates report().
  Status Refresh();

 private:
  InteractiveSession(AggChecker* checker, const text::TextDocument* doc)
      : checker_(checker), doc_(doc) {}

  AggChecker* checker_;
  const text::TextDocument* doc_;
  std::vector<claims::Claim> detected_;
  std::vector<std::optional<db::SimpleAggregateQuery>> pinned_;
  std::vector<bool> dismissed_;
  CheckReport report_;
};

}  // namespace core
}  // namespace aggchecker
