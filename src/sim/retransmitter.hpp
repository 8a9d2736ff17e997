// The retransmission loop shared by the RQS clients that resend a round's
// broadcast until a quorum acks (RqsWriter, RqsReader, RqsProposer).
//
// It owns the backoff ladder — the policy, the round's jitter salt, the
// attempt count and the retry Timer — and is built with the owner's two
// reactions: what to resend, and what to do once the policy gives up (fail
// over to a fresh quorum attempt, or go quiet). The owner calls start()
// after a round's first send and stop() on every path to idle or halt.
//
// Disabled (the default policy), start() arms nothing and the owner is
// byte-identical to the send-once automaton.
#pragma once

#include <cstdint>

#include "common/retry.hpp"
#include "sim/process.hpp"

namespace rqs::sim {

class Retransmitter {
 public:
  /// Each expiry counts an attempt: within the policy `resend` runs and
  /// the ladder re-arms; past it `give_up` runs and the ladder stays idle
  /// until the owner's next start(). An unset `policy.base_delay` defaults
  /// to 4 * Delta: double the storage round-gate timeout, and past
  /// consensus's 3-Delta sync probe.
  Retransmitter(Process& owner, RetryPolicy::Config policy, Reaction resend,
                Reaction give_up)
      : timer_(owner, [this] { expire(); }),
        policy_(policy),
        resend_(resend),
        give_up_(give_up) {
    if (policy_.base_delay <= 0) policy_.base_delay = 4 * owner.sim().delta();
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
  void stop() { timer_.cancel(); }

 private:
  void expire() {
    ++attempt_;
    if (!RetryPolicy::allows(policy_, attempt_)) {
      give_up_();
      return;
    }
    resend_();
    arm();
  }

  void arm() { timer_.arm(RetryPolicy::delay(policy_, salt_, attempt_ + 1)); }

  Timer timer_;
  RetryPolicy::Config policy_;
  Reaction resend_;
  Reaction give_up_;
  std::uint64_t salt_{0};
  std::uint32_t attempt_{0};
};

}  // namespace rqs::sim
