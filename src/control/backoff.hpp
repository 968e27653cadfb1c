// Capped exponential backoff with deterministic, seeded jitter — the
// one retry schedule every control-plane writer shares: Transaction's
// physical write retries (PR 4) and the session layer's ack-timeout
// resends both consume the same Backoff, so a seed pins the exact
// retry trace of a whole chaos run.
//
// backoff_ms is a pure function of (policy, retry number): no state,
// no call-order dependence — the same policy yields the same backoff
// sequence in every run, on every thread. Delays are always simulated
// (accumulated into reports), never slept.
#pragma once

#include <cstdint>

namespace dejavu::control {

struct Backoff {
  /// Physical attempts per op (1 = no retry).
  std::uint32_t max_attempts = 4;
  std::uint32_t base_ms = 10;
  double multiplier = 2.0;
  std::uint32_t max_ms = 1000;
  /// Jitter fraction: the delay is scaled by a factor drawn uniformly
  /// from [1 - jitter, 1 + jitter].
  double jitter = 0.2;
  std::uint64_t seed = 0x5fc;

  /// Simulated delay before retry number `retry` (1-based: the delay
  /// between attempt N and attempt N+1 is backoff_ms(N)).
  std::uint32_t backoff_ms(std::uint32_t retry) const;
};

}  // namespace dejavu::control
