// Deterministic retransmission policy: capped exponential backoff with
// seeded per-process jitter. The delay schedule is a pure function of
// (config, salt, attempt) — no clocks, no global RNG state — so every
// retry decision replays identically from the scenario seed, and two
// processes retrying the same operation desynchronize through their
// id-derived salts instead of duelling in lockstep.
//
// Lives in common/ (no sim/ dependency): delays are plain tick counts the
// caller scales by whatever clock it owns.
#pragma once

#include <algorithm>
#include <cstdint>

namespace rqs {

/// Capped exponential backoff with deterministic jitter.
struct RetryPolicy {
  /// Tuning knobs, carried by value through harness/process configs.
  /// Default-constructed the policy is disabled and every protocol behaves
  /// exactly as if the retry layer did not exist (send-once semantics) —
  /// that passivity is what keeps loss-free golden digests byte-identical.
  struct Config {
    bool enabled{false};
    /// Delay before the first retransmission, in caller ticks (> 0 when
    /// enabled; protocols typically pass a multiple of Δ).
    std::int64_t base_delay{0};
    /// Retransmissions before the caller gives up and fails over to a
    /// fresh quorum / view change; 0 means retry forever.
    std::uint32_t max_attempts{0};
    /// Jitter stream seed; combined with the caller-supplied salt so
    /// distinct processes and operations draw independent jitter.
    std::uint64_t seed{0};
  };

  /// splitmix64 finalizer — a tiny, well-mixed hash. Deterministic and
  /// allocation-free, so it passes the nondet lint and is safe on the
  /// timer path.
  [[nodiscard]] static constexpr std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Combines the config seed with a caller salt (typically the process id
  /// mixed with an op nonce or view number) into one jitter stream key.
  [[nodiscard]] static constexpr std::uint64_t stream(
      const Config& c, std::uint64_t salt) noexcept {
    return mix(c.seed ^ mix(salt));
  }

  /// Delay before retransmission number `attempt` (1-based): exponential
  /// backoff capped at 8 * base_delay, plus jitter in [0, base_delay).
  /// Always >= 1 so a retry timer never fires at the instant it was armed.
  [[nodiscard]] static constexpr std::int64_t delay(
      const Config& c, std::uint64_t salt, std::uint32_t attempt) noexcept {
    const std::int64_t base = c.base_delay > 0 ? c.base_delay : 1;
    // Doubles from base up to the cap, reached at attempt 4 and held from
    // there on: the shift is at most 3 whatever the attempt number.
    const std::uint32_t exp = attempt > 0 ? attempt - 1 : 0;
    const std::int64_t backoff = base << std::min<std::uint32_t>(exp, 3);
    const auto jitter = static_cast<std::int64_t>(
        mix(stream(c, salt) ^ attempt) % static_cast<std::uint64_t>(base));
    return std::max<std::int64_t>(1, backoff + jitter);
  }

  /// True when the policy still allows retransmission number `attempt`
  /// (1-based); false once the caller should fail over instead.
  [[nodiscard]] static constexpr bool allows(const Config& c,
                                             std::uint32_t attempt) noexcept {
    return c.enabled && (c.max_attempts == 0 || attempt <= c.max_attempts);
  }
};

}  // namespace rqs
