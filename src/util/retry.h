#pragma once

#include <cstdint>

#include "util/status.h"

namespace aggchecker {

/// \brief How many times to retry a transiently-failing operation and how
/// long to wait between attempts.
///
/// Backoff is capped exponential and fully deterministic: no wall-clock
/// jitter, so chaos tests replay bit-identically. Attempt 1 is the original
/// call; retries sleep `initial_backoff_ms * multiplier^(attempt-1)` capped
/// at `max_backoff_ms` before re-running.
struct RetryPolicy {
  /// Total attempts including the first (1 = no retries).
  uint32_t max_attempts = 3;
  /// Backoff before the first retry, in milliseconds. 0 disables sleeping
  /// entirely (tests use this to keep chaos sweeps fast).
  uint32_t initial_backoff_ms = 1;
  /// Multiplier applied per further retry.
  uint32_t backoff_multiplier = 2;
  /// Ceiling on any single backoff sleep.
  uint32_t max_backoff_ms = 8;
};

/// Milliseconds the policy sleeps before retry number `retry_index`
/// (1-based: 1 = first retry). Pure function of the policy — exposed for
/// tests and for callers that want to account the wait.
uint32_t BackoffMillis(const RetryPolicy& policy, uint32_t retry_index);

/// Sleeps for BackoffMillis(policy, retry_index); no-op when that is 0.
void SleepForBackoff(const RetryPolicy& policy, uint32_t retry_index);

/// \brief Knobs for the self-healing evaluation layer (DESIGN.md §13).
///
/// Defaults are ON at the `CheckOptions` level: a transient fault is
/// retried on the same configuration, a persistent fault in an optimized
/// path descends the fallback ladder to its one reference rung (scalar
/// cube oracle over freshly rebuilt, uncached joins), and only claims that
/// fail there too are quarantined as partial verdicts. Raw
/// `db::EvalEngine` instances keep recovery OFF unless SetRecovery is
/// called, so differential tests see unmasked errors.
struct RecoveryOptions {
  /// Master switch. When false the engine surfaces hard errors unchanged.
  bool enabled = true;
  /// Same-rung retry schedule for transient (Status::IsTransient) errors.
  RetryPolicy retry;
};

}  // namespace aggchecker
