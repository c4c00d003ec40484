#include "core/interactive_session.h"

#include "db/executor.h"
#include "util/strings.h"

namespace aggchecker {
namespace core {

Result<InteractiveSession> InteractiveSession::Start(
    AggChecker* checker, const text::TextDocument* doc) {
  if (checker == nullptr || doc == nullptr) {
    return Status::InvalidArgument("session needs a checker and a document");
  }
  InteractiveSession session(checker, doc);
  claims::ClaimDetector detector(checker->options().detector);
  session.detected_ = detector.Detect(*doc);
  session.pinned_.assign(session.detected_.size(), std::nullopt);
  session.dismissed_.assign(session.detected_.size(), false);

  Status status = session.Refresh();
  if (!status.ok()) return status;
  return session;
}

Status InteractiveSession::Refresh() {
  // Dismissed claims drop out of translation (and of the priors' claim
  // pool) entirely; the rest run through the checker's own pipeline with
  // their pins.
  std::vector<claims::Claim> active;
  std::vector<std::optional<db::SimpleAggregateQuery>> active_pins;
  std::vector<size_t> active_index;
  for (size_t i = 0; i < detected_.size(); ++i) {
    if (dismissed_[i]) continue;
    active.push_back(detected_[i]);
    active_pins.push_back(pinned_[i]);
    active_index.push_back(i);
  }
  auto report = checker_->CheckDetected(*doc_, active, &active_pins);
  if (!report.ok()) return report.status();

  std::vector<ClaimVerdict> active_verdicts = std::move(report->verdicts);
  report->verdicts.assign(detected_.size(), ClaimVerdict{});
  for (size_t a = 0; a < active_verdicts.size(); ++a) {
    report->verdicts[active_index[a]] = std::move(active_verdicts[a]);
  }
  for (size_t i = 0; i < detected_.size(); ++i) {
    if (!dismissed_[i]) continue;
    report->verdicts[i].claim = detected_[i];
    report->verdicts[i].dismissed = true;
  }
  report_ = std::move(*report);
  return Status::OK();
}

Status InteractiveSession::SelectCandidate(size_t claim_idx, size_t rank) {
  if (claim_idx >= report_.verdicts.size()) {
    return Status::OutOfRange("no such claim");
  }
  const auto& top = report_.verdicts[claim_idx].top_queries;
  if (rank < 1 || rank > top.size()) {
    return Status::OutOfRange(strings::Format(
        "claim has %zu candidates, rank %zu requested", top.size(), rank));
  }
  pinned_[claim_idx] = top[rank - 1].query;
  return Status::OK();
}

Status InteractiveSession::SetCustomQuery(size_t claim_idx,
                                          db::SimpleAggregateQuery query) {
  if (claim_idx >= detected_.size()) {
    return Status::OutOfRange("no such claim");
  }
  db::QueryExecutor executor(&checker_->database());
  Status valid = executor.Validate(query);
  if (!valid.ok()) return valid;
  pinned_[claim_idx] = std::move(query);
  return Status::OK();
}

Status InteractiveSession::ClearCorrection(size_t claim_idx) {
  if (claim_idx >= pinned_.size()) return Status::OutOfRange("no such claim");
  pinned_[claim_idx] = std::nullopt;
  dismissed_[claim_idx] = false;
  return Status::OK();
}

Status InteractiveSession::DismissClaim(size_t claim_idx) {
  if (claim_idx >= dismissed_.size()) {
    return Status::OutOfRange("no such claim");
  }
  dismissed_[claim_idx] = true;
  pinned_[claim_idx] = std::nullopt;
  return Status::OK();
}

}  // namespace core
}  // namespace aggchecker
