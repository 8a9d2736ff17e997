// RQS consensus: learner automaton (Figure 15, lines 51-53, 60, 101-103).
//
// A learner learns through the same three decision rules as acceptors, or
// by receiving identical decision messages from a basic subset of
// acceptors; while unlearned it periodically pulls decisions so that late
// or recovering learners catch up.
#pragma once

#include "consensus/config.hpp"
#include "consensus/decide_tracker.hpp"
#include "obs/observer.hpp"
#include "sim/process.hpp"

namespace rqs::consensus {

/// Learners passively watch updates and decisions (lines 51-53, 101), so
/// they drop the view-change and signing traffic, which never targets them.
class RqsLearner final
    : public sim::ProcessOf<
          RqsLearner, Messages,
          sim::MessageList<PrepareMsg, NewViewMsg, NewViewAckMsg,
                           SignReqMsg, SignAckMsg, ViewChangeMsg,
                           DecisionPullMsg, SyncMsg>> {
 public:
  RqsLearner(sim::Simulation& sim, ProcessId id, const ConsensusConfig& config)
      : ProcessOf(sim, id),
        config_(config),
        tracker_(*config.rqs),
        pull_timer_(set_timer(kPullPeriodDeltas * sim.delta())) {}

  [[nodiscard]] bool learned() const noexcept { return learned_; }
  [[nodiscard]] Value learned_value() const noexcept { return value_; }
  [[nodiscard]] sim::SimTime learn_time() const noexcept { return learn_time_; }

  void on(ProcessId from, const UpdateMsg& up) {
    if (learned_ || !config_.acceptors.contains(from)) return;
    if (const auto v = tracker_.feed(from, up)) learn(*v);
  }

  void on(ProcessId from, const DecisionMsg& dec) {
    // Line 101: decisions from a basic subset of acceptors suffice.
    if (learned_ || !config_.acceptors.contains(from)) return;
    ProcessSet& senders = decision_senders_[dec.value];
    senders.insert(from);
    if (config_.rqs->adversary().is_basic(senders)) learn(dec.value);
  }

  void on_timer(sim::TimerId timer) override {
    if (timer != pull_timer_ || learned_) return;
    // Lines 102-103.
    send_all(config_.acceptors, make_msg<DecisionPullMsg>());
    pull_timer_ = set_timer(kPullPeriodDeltas * sim().delta());
  }

  /// Protocol-visible state only (learn_time_ and the timer handle are
  /// observations) — used by the duplicate-delivery equivalence suite.
  void digest_state(Fnv64& h) const override {
    h.mix(learned_ ? 1 : 0);
    h.mix(static_cast<std::uint64_t>(value_));
    h.mix(tracker_.decided() ? 1 : 0);
    h.mix(static_cast<std::uint64_t>(tracker_.decision()));
    h.mix(decision_senders_.size());
    for (const auto& [v, s] : decision_senders_) {
      h.mix(static_cast<std::uint64_t>(v));
      digest_into(h, s);
    }
  }

 private:
  static constexpr sim::SimTime kPullPeriodDeltas = 10;

  void learn(Value v) {
    if (learned_) return;
    learned_ = true;
    value_ = v;
    learn_time_ = now();
    if (auto* ob = sim().observer()) {
      // Rule 1/2/3 when a decision rule fired here; 0 means the learner
      // caught up from a basic subset of decision messages (line 101).
      const RoundNumber step = tracker_.decided_step();
      ob->count(step == 1 ? "consensus.learn.rule1"
                          : step == 2 ? "consensus.learn.rule2"
                                      : step == 3 ? "consensus.learn.rule3"
                                                  : "consensus.learn.via_decisions");
      ob->record_latency("consensus.learn.sim_time", learn_time_);
      ob->phase(learn_time_, id(), obs::kPhaseLearn,
                static_cast<std::uint64_t>(v), 0,
                static_cast<std::uint8_t>(step));
    }
  }

  ConsensusConfig config_;
  DecideTracker tracker_;
  std::map<Value, ProcessSet> decision_senders_;
  bool learned_{false};
  Value value_{kNil};
  sim::SimTime learn_time_{0};
  sim::TimerId pull_timer_;
};

}  // namespace rqs::consensus
