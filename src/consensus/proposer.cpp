#include "consensus/proposer.hpp"

#include <cassert>

#include "obs/observer.hpp"

namespace rqs::consensus {

RqsProposer::RqsProposer(sim::Simulation& sim, ProcessId id,
                         const ConsensusConfig& config)
    : ProcessOf(sim, id), config_(config), signer_(*config.authority, id),
      retx_(sim, id, config.retry) {}

void RqsProposer::propose(Value v) {
  if (halted_) return;
  value_ = v;
  if (!proposed_) {
    proposed_ = true;
    // Fig. 14 lines 101-103: after a preset time, nudge acceptors' timers
    // with sync and probe for an existing decision.
    sync_pending_ = true;
    sync_timer_ = set_timer(3 * sim().delta());
  }
  run_propose();
}

void RqsProposer::run_propose() {
  if (halted_) return;
  if (view_ == 0) {
    // Fig. 9: skip the consult phase in initView.
    if (auto* ob = sim().observer()) {
      ob->count("consensus.propose.fast_path");
      ob->phase(now(), id(), obs::kPhaseProposeFast, static_cast<std::uint64_t>(value_));
    }
    send_prepare(value_, VProof{}, ProcessSet{});
    return;
  }
  // Consult phase (Fig. 12 line 2).
  if (auto* ob = sim().observer()) {
    ob->count("consensus.propose.slow_path");
    ob->phase(now(), id(), obs::kPhaseProposeConsult, view_);
  }
  consulting_ = true;
  prepare_sent_ = false;
  acks_.clear();
  faulty_.clear();
  prepared_quorums_.clear();
  send_all(config_.acceptors, new_view_msg());
  start_retry();
}

sim::PooledMessage<NewViewMsg> RqsProposer::new_view_msg() {
  auto msg = make_msg<NewViewMsg>();
  msg->view = view_;
  msg->view_proof = view_proof_;
  return msg;
}

void RqsProposer::start_retry() {
  retx_.start((static_cast<std::uint64_t>(id()) << 32) ^ view_);
}

void RqsProposer::send_prepare(Value v, const VProof& vproof, ProcessSet q) {
  prepared_value_ = v;
  prepared_vproof_ = vproof;
  prepared_quorum_ = q;
  prepare_sent_ = true;
  broadcast_prepare();
  start_retry();
}

void RqsProposer::broadcast_prepare() {
  for (const ProcessId target : config_.acceptors) {
    auto msg = make_msg<PrepareMsg>();
    msg->value = prepare_value_for(prepared_value_, target);
    msg->view = view_;
    msg->vproof = prepared_vproof_;
    msg->vproof_quorum = prepared_quorum_;
    send(target, std::move(msg));
  }
}

bool RqsProposer::ack_valid(const NewViewAckMsg& m) const {
  if (m.data.view != view_) return false;
  if (!config_.authority->verify(m.signature, m.signer, m.data.payload())) {
    return false;
  }
  // Line 4 ("valid acks").
  return updateproof_valid(m.data, *config_.authority, config_.rqs->adversary());
}

void RqsProposer::try_choose_and_prepare() {
  // Lines 3-8: look for a quorum of valid acks not yet known faulty.
  ProcessSet acked;
  for (const auto& [a, data] : acks_) acked.insert(a);
  config_.rqs->any_quorum(QuorumClass::Class3, [&](QuorumId qid) {
    const ProcessSet quorum = config_.rqs->quorum_set(qid);
    if (!quorum.subset_of(acked)) return false;
    if (faulty_.find(quorum) != faulty_.end()) return false;
    if (prepared_quorums_.find(quorum) != prepared_quorums_.end()) return false;
    // Restrict the proof to exactly Q's members.
    VProof vproof;
    for (const ProcessId a : quorum) vproof[a] = acks_[a];
    const ChooseResult chosen = choose(value_, vproof, quorum, *config_.rqs);
    if (chosen.abort) {
      if (auto* ob = sim().observer()) {
        ob->count("consensus.choose.abort");
        ob->phase(now(), id(), obs::kPhaseChooseAbort, view_);
      }
      faulty_.insert(quorum);  // line 7
      return false;
    }
    prepared_quorums_.insert(quorum);
    consulting_ = false;
    send_prepare(chosen.value, vproof, quorum);  // line 9
    return true;
  });
}

void RqsProposer::on(ProcessId from, const NewViewAckMsg& ack) {
  if (halted_ || !consulting_ || ack.signer != from) return;
  if (!config_.acceptors.contains(from)) return;
  if (!ack_valid(ack)) return;
  acks_[from] = ack.data;
  try_choose_and_prepare();
}

void RqsProposer::on(ProcessId from, const ViewChangeMsg& vc) {
  // Fig. 14 lines 10-13.
  if (halted_ || !config_.acceptors.contains(from)) return;
  if (vc.change.signer != from) return;
  if (!config_.authority->verify(vc.change.signature, from,
                                 vc.change.payload())) {
    return;
  }
  const ViewNumber next = vc.change.next_view;
  view_changes_[next][from] = vc.change;
  if (next <= view_ || config_.leader_of(next) != id()) return;
  ProcessSet senders;
  for (const auto& [a, change] : view_changes_[next]) senders.insert(a);
  if (!config_.rqs->has_quorum_in(senders)) return;
  view_proof_.clear();
  for (const auto& [a, change] : view_changes_[next]) {
    view_proof_.push_back(change);
  }
  view_ = next;  // line 12
  if (auto* ob = sim().observer()) {
    ob->count("consensus.view_change");
    ob->phase(now(), id(), obs::kPhaseViewChange, next);
  }
  if (proposed_) run_propose();  // line 13/10: elected => propose
}

void RqsProposer::on(ProcessId from, const DecisionMsg& dec) {
  // Fig. 14 line 104: a quorum of identical decisions halts the proposer.
  if (halted_ || !config_.acceptors.contains(from)) return;
  ProcessSet& senders = decision_senders_[dec.value];
  senders.insert(from);
  if (config_.rqs->has_quorum_in(senders)) {
    halted_ = true;
    retx_.stop();
  }
}

// Protocol-visible proposer state for the duplicate-delivery equivalence
// suite; timer handles and the signer are excluded as observations.
void RqsProposer::digest_state(Fnv64& h) const {
  h.mix(static_cast<std::uint64_t>(value_));
  h.mix(proposed_ ? 1 : 0);
  h.mix(halted_ ? 1 : 0);
  h.mix(view_);
  h.mix(consulting_ ? 1 : 0);
  h.mix(acks_.size());
  for (const auto& [a, data] : acks_) {
    h.mix(a);
    h.mix(data.view);
    h.mix(static_cast<std::uint64_t>(data.prep));
  }
  h.mix(faulty_.size());
  for (const ProcessSet& q : faulty_) digest_into(h, q);
  h.mix(prepared_quorums_.size());
  for (const ProcessSet& q : prepared_quorums_) digest_into(h, q);
  h.mix(view_changes_.size());
  for (const auto& [next, changes] : view_changes_) {
    h.mix(next);
    h.mix(changes.size());
    for (const auto& [a, change] : changes) h.mix(a);
  }
  h.mix(decision_senders_.size());
  for (const auto& [v, senders] : decision_senders_) {
    h.mix(static_cast<std::uint64_t>(v));
    digest_into(h, senders);
  }
  h.mix(prepare_sent_ ? 1 : 0);
  h.mix(static_cast<std::uint64_t>(prepared_value_));
}

void RqsProposer::on_timer(sim::TimerId timer) {
  if (halted_) return;
  using Fired = sim::Retransmitter::Fired;
  const Fired fired = retx_.fire(timer, [this] {
    if (auto* ob = sim().observer()) ob->count("consensus.propose.retransmit");
    if (consulting_) {
      send_all(config_.acceptors, new_view_msg());
    } else if (prepare_sent_) {
      broadcast_prepare();
    }
    // Re-probe alongside every retransmission: sync re-arms stopped-clock
    // acceptors' suspicion timers and the pull surfaces decisions this
    // proposer missed (which is what finally halts it).
    send_all(config_.acceptors, make_msg<SyncMsg>());
    send_all(config_.acceptors, make_msg<DecisionPullMsg>());
  });
  if (fired == Fired::kGaveUp) {
    // Go quiet and let the acceptors' suspicion timers drive a view change
    // toward the next leader (Fig. 14 lines 1-5).
    if (auto* ob = sim().observer()) ob->count("consensus.propose.giveup");
  }
  if (fired != Fired::kNotMine) return;
  if (timer != sync_timer_ || !sync_pending_) return;
  sync_pending_ = false;
  send_all(config_.acceptors, make_msg<SyncMsg>());
  send_all(config_.acceptors, make_msg<DecisionPullMsg>());
}

}  // namespace rqs::consensus
