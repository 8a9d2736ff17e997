#include "consensus/crash_paxos.hpp"

namespace rqs::consensus {

namespace {

/// PaxosProposer's preemption backoff: always on, 8-Delta base, seed 0.
RetryPolicy::Config preemption_backoff(sim::SimTime delta) {
  RetryPolicy::Config backoff;
  backoff.enabled = true;
  backoff.base_delay = 8 * delta;
  return backoff;
}

}  // namespace

void PaxosAcceptor::on(ProcessId from, const P1aMsg& p1a) {
  if (!promised_ || p1a.ballot > *promised_) promised_ = p1a.ballot;
  if (p1a.ballot == *promised_) {
    auto reply = make_msg<P1bMsg>();
    reply->ballot = p1a.ballot;
    reply->accepted_ballot = accepted_ballot_;
    reply->accepted_value = accepted_value_;
    send(from, std::move(reply));
  }
}

void PaxosAcceptor::on(ProcessId from, const P2aMsg& p2a) {
  if (promised_ && p2a.ballot < *promised_) return;
  promised_ = p2a.ballot;
  accepted_ballot_ = p2a.ballot;
  accepted_value_ = p2a.value;
  auto reply = make_msg<P2bMsg>();
  reply->ballot = p2a.ballot;
  reply->value = p2a.value;
  send(from, reply);
  send_all(learners_, std::move(reply));
}

void PaxosProposer::propose(Value v) {
  value_ = v;
  ballot_ = Ballot{1, id()};
  start_round();
}

void PaxosProposer::start_round() {
  phase_ = Phase::kPhase1;
  responders_ = ProcessSet{};
  best_accepted_.reset();
  best_value_ = value_;
  auto msg = make_msg<P1aMsg>();
  msg->ballot = ballot_;
  send_all(acceptors_, std::move(msg));
  // Jittered capped-exponential backoff instead of the old fixed 8-Delta
  // timer: two preempting proposers draw distinct per-process delays, so
  // one of them always gets a full phase-1+2 window to itself eventually.
  retry_timer_ = set_timer(
      RetryPolicy::delay(preemption_backoff(sim().delta()),
                         static_cast<std::uint64_t>(id()) << 32, attempt_ + 1));
}

void PaxosProposer::on(ProcessId from, const P1bMsg& p1b) {
  if (phase_ != Phase::kPhase1 || p1b.ballot != ballot_) return;
  responders_.insert(from);
  if (p1b.accepted_ballot &&
      (!best_accepted_ || *p1b.accepted_ballot > *best_accepted_)) {
    best_accepted_ = p1b.accepted_ballot;
    best_value_ = p1b.accepted_value;
  }
  if (responders_.size() >= majority()) {
    phase_ = Phase::kPhase2;
    responders_ = ProcessSet{};
    auto msg = make_msg<P2aMsg>();
    msg->ballot = ballot_;
    msg->value = best_value_;
    send_all(acceptors_, std::move(msg));
  }
}

void PaxosProposer::on(ProcessId from, const P2bMsg& p2b) {
  if (phase_ != Phase::kPhase2 || p2b.ballot != ballot_) return;
  responders_.insert(from);
  if (responders_.size() >= majority()) {
    phase_ = Phase::kIdle;  // chosen; learners hear the P2b broadcast
    cancel_timer(retry_timer_);
  }
}

void PaxosProposer::on_timer(sim::TimerId timer) {
  if (timer != retry_timer_ || phase_ == Phase::kIdle) return;
  // Preempted or partitioned: retry with a higher ballot.
  ++attempt_;
  ballot_ = Ballot{ballot_.round + 1, id()};
  start_round();
}

void PaxosLearner::on(ProcessId from, const P2bMsg& p2b) {
  if (learned_) return;
  ProcessSet& senders = accepted_[{p2b.ballot.round, p2b.ballot.proposer}];
  senders.insert(from);
  if (senders.size() >= acceptor_count_ / 2 + 1) {
    learned_ = true;
    value_ = p2b.value;
    learn_time_ = now();
  }
}

}  // namespace rqs::consensus
