// RetryPolicy backoff arithmetic: capped exponential, fully deterministic
// (no jitter), and disabled outright by a zero initial backoff — the knob
// chaos tests use to keep sweeps sleep-free.

#include <gtest/gtest.h>

#include "util/retry.h"

namespace aggchecker {
namespace {

TEST(RetryTest, DefaultPolicyBacksOffExponentiallyWithCap) {
  RetryPolicy policy;  // initial 1ms, x2, capped at 8ms
  EXPECT_EQ(BackoffMillis(policy, 1), 1u);
  EXPECT_EQ(BackoffMillis(policy, 2), 2u);
  EXPECT_EQ(BackoffMillis(policy, 3), 4u);
  EXPECT_EQ(BackoffMillis(policy, 4), 8u);
  EXPECT_EQ(BackoffMillis(policy, 5), 8u) << "cap holds from here on";
  EXPECT_EQ(BackoffMillis(policy, 30), 8u) << "no overflow past the cap";
}

TEST(RetryTest, ZeroInitialBackoffDisablesSleeping) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 0;
  for (uint32_t retry = 1; retry <= 6; ++retry) {
    EXPECT_EQ(BackoffMillis(policy, retry), 0u);
  }
  SleepForBackoff(policy, 3);  // must be a no-op, not a zero-length syscall
}

TEST(RetryTest, CustomMultiplierAndCap) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 2;
  policy.backoff_multiplier = 3;
  policy.max_backoff_ms = 10;
  EXPECT_EQ(BackoffMillis(policy, 1), 2u);
  EXPECT_EQ(BackoffMillis(policy, 2), 6u);
  EXPECT_EQ(BackoffMillis(policy, 3), 10u) << "18ms clamps to the cap";
  EXPECT_EQ(BackoffMillis(policy, 4), 10u);
}

TEST(RetryTest, RecoveryOptionsDefaultsMatchDesign) {
  RecoveryOptions options;
  EXPECT_TRUE(options.enabled);
  EXPECT_EQ(options.retry.max_attempts, 3u);
}

}  // namespace
}  // namespace aggchecker
