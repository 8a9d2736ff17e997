// The retransmission loop shared by the RQS clients that resend a round's
// broadcast until a quorum acks (RqsWriter, RqsReader, RqsProposer).
//
// It owns the backoff ladder — the policy, the round's jitter salt, the
// attempt count and the one retry TimerId — so an owner keeps only its
// reactions: what to resend, and what to do once the policy gives up
// (fail over to a fresh quorum attempt, or go quiet). The owner calls
// start() after a round's first send, stop() on every path to idle or
// halt, and offers every fired timer to fire() before its own timers.
//
// Disabled (the default policy), start() arms nothing, fire() never claims
// a timer and the owner is byte-identical to the send-once automaton.
#pragma once

#include <cstdint>

#include "common/retry.hpp"
#include "sim/simulation.hpp"

namespace rqs::sim {

class Retransmitter {
 public:
  enum class Fired { kNotMine, kRetransmitted, kGaveUp };

  /// An unset `policy.base_delay` defaults to 4 * Delta: double the
  /// storage round-gate timeout, and past consensus's 3-Delta sync probe.
  Retransmitter(Simulation& sim, ProcessId owner, RetryPolicy::Config policy)
      : sim_(sim), owner_(owner), policy_(policy) {
    if (policy_.base_delay <= 0) policy_.base_delay = 4 * sim.delta();
  }

  [[nodiscard]] bool enabled() const noexcept { return policy_.enabled; }
  /// Retransmissions in the current round.
  [[nodiscard]] std::uint32_t attempt() const noexcept { return attempt_; }

  /// A round's first send went out: restart the ladder, jittered by `salt`.
  void start(std::uint64_t salt) {
    if (!policy_.enabled) return;
    salt_ = salt;
    attempt_ = 0;
    arm();
  }

  /// The owner went idle or halted: disarm.
  void stop() {
    if (!armed_) return;
    sim_.cancel_timer(timer_);
    armed_ = false;
  }

  /// Offers a fired timer. Anything but the retry timer is kNotMine.
  /// Otherwise the attempt is counted: within the policy `resend()` runs
  /// and the timer re-arms (kRetransmitted); past it the ladder stays
  /// disarmed until the owner's next start() (kGaveUp).
  template <typename Resend>
  Fired fire(TimerId timer, Resend&& resend) {
    if (!armed_ || timer != timer_) return Fired::kNotMine;
    armed_ = false;
    ++attempt_;
    if (!RetryPolicy::allows(policy_, attempt_)) return Fired::kGaveUp;
    resend();
    arm();
    return Fired::kRetransmitted;
  }

 private:
  void arm() {
    if (armed_) sim_.cancel_timer(timer_);
    armed_ = true;
    timer_ = sim_.arm_timer(owner_,
                            RetryPolicy::delay(policy_, salt_, attempt_ + 1));
  }

  Simulation& sim_;
  ProcessId owner_;
  RetryPolicy::Config policy_;
  std::uint64_t salt_{0};
  std::uint32_t attempt_{0};
  TimerId timer_{0};
  bool armed_{false};
};

}  // namespace rqs::sim
