// control::Backoff — the one retry schedule every control-plane writer
// shares (Transaction's physical write retries and the session layer's
// ack-timeout resends). The load-bearing property is determinism:
// backoff_ms is a pure function of (policy, retry number), so a seed
// pins the exact retry trace of a whole chaos run.
#include <gtest/gtest.h>

#include <cmath>

#include "control/backoff.hpp"
#include "control/live_update.hpp"
#include "control/repair.hpp"
#include "control/session.hpp"
#include "control/transaction.hpp"

namespace dejavu::control {
namespace {

TEST(Backoff, PureFunctionOfPolicyAndRetry) {
  const Backoff p;
  for (std::uint32_t retry = 1; retry <= 12; ++retry) {
    // Same policy, same retry -> same delay, no matter how often or in
    // what order it is asked.
    EXPECT_EQ(p.backoff_ms(retry), p.backoff_ms(retry)) << retry;
  }
  // Interleaved queries cannot perturb each other (no hidden state).
  const std::uint32_t third = p.backoff_ms(3);
  (void)p.backoff_ms(7);
  (void)p.backoff_ms(1);
  EXPECT_EQ(p.backoff_ms(3), third);

  // Two identical policy values are interchangeable.
  const Backoff q = p;
  for (std::uint32_t retry = 1; retry <= 12; ++retry) {
    EXPECT_EQ(p.backoff_ms(retry), q.backoff_ms(retry)) << retry;
  }
}

TEST(Backoff, RetryZeroMeansNoDelay) {
  const Backoff p;
  EXPECT_EQ(p.backoff_ms(0), 0u);
}

TEST(Backoff, GrowsExponentiallyUntilTheCap) {
  Backoff p;
  p.jitter = 0.0;  // isolate the exponential core
  EXPECT_EQ(p.backoff_ms(1), p.base_ms);
  EXPECT_EQ(p.backoff_ms(2), p.base_ms * 2);
  EXPECT_EQ(p.backoff_ms(3), p.base_ms * 4);
  // 10 * 2^(retry-1) crosses max_ms=1000 at retry 8.
  EXPECT_EQ(p.backoff_ms(8), p.max_ms);
  EXPECT_EQ(p.backoff_ms(20), p.max_ms);
}

TEST(Backoff, CapHoldsEvenWithJitter) {
  const Backoff p;  // jitter = 0.2
  const auto ceiling =
      static_cast<std::uint32_t>(p.max_ms * (1.0 + p.jitter)) + 1;
  for (std::uint32_t retry = 1; retry <= 32; ++retry) {
    EXPECT_LE(p.backoff_ms(retry), ceiling) << retry;
  }
}

TEST(Backoff, JitterStaysWithinTheConfiguredBand) {
  Backoff p;
  p.jitter = 0.5;
  for (std::uint32_t retry = 1; retry <= 8; ++retry) {
    const double nominal =
        std::min(static_cast<double>(p.base_ms) *
                     std::pow(p.multiplier, retry - 1),
                 static_cast<double>(p.max_ms));
    const double ms = p.backoff_ms(retry);
    EXPECT_GE(ms, nominal * (1.0 - p.jitter) - 1.0) << retry;
    EXPECT_LE(ms, nominal * (1.0 + p.jitter) + 1.0) << retry;
  }
}

TEST(Backoff, SeedChangesTheJitterTrace) {
  const Backoff a;
  Backoff b = a;
  b.seed = 0xfeedbeef;
  bool any_differs = false;
  for (std::uint32_t retry = 1; retry <= 8; ++retry) {
    any_differs |= a.backoff_ms(retry) != b.backoff_ms(retry);
  }
  EXPECT_TRUE(any_differs);
}

TEST(Backoff, DifferentRetriesJitterIndependently) {
  // The jitter factor is keyed on (seed, retry): two retries whose
  // nominal delay is identical (both past the cap) still draw
  // different factors — the thundering-herd property.
  const Backoff p;
  bool any_differs = false;
  for (std::uint32_t retry = 9; retry <= 16; ++retry) {
    any_differs |= p.backoff_ms(retry) != p.backoff_ms(retry + 1);
  }
  EXPECT_TRUE(any_differs);
}

TEST(Backoff, RetryPolicyIsTheSameType) {
  // Every retry policy — Transaction's, a live update's, repair's and
  // the session layer's — is a Backoff: one schedule, not two.
  static_assert(std::is_same_v<decltype(LiveUpdateOptions::retry), Backoff>);
  static_assert(std::is_same_v<decltype(RepairPolicy::retry), Backoff>);
  static_assert(std::is_same_v<decltype(SessionOptions::retry), Backoff>);
  static_assert(std::is_same_v<decltype(AgentOptions::retry), Backoff>);
  LiveUpdateOptions options;
  options.retry.seed = 42;
  const Backoff& b = options.retry;
  EXPECT_EQ(b.backoff_ms(3), Backoff{.seed = 42}.backoff_ms(3));
}

}  // namespace
}  // namespace dejavu::control
