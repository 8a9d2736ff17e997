#include "consensus/acceptor.hpp"

#include <algorithm>

#include "obs/observer.hpp"

namespace rqs::consensus {

RqsAcceptor::RqsAcceptor(sim::Simulation& sim, ProcessId id,
                         const ConsensusConfig& config)
    : ProcessOf(sim, id),
      config_(config),
      signer_(*config.authority, id),
      tracker_(*config.rqs),
      suspect_timeout_(5 * sim.delta()) {}

// ---------------------------------------------------------------------------
// Locking module.
// ---------------------------------------------------------------------------

void RqsAcceptor::on(ProcessId from, const PrepareMsg& m) {
  // Election, Fig. 14 line 0: the first prepare of the initial view arms
  // the suspicion timer.
  if (m.view == 0) arm_suspect_timer();
  if (m.view != view_) return;
  // Line 31: (w in Prepview => w < view) — not yet prepared in this view.
  const bool fresh = std::all_of(prepview_.begin(), prepview_.end(),
                                 [this](ViewNumber w) { return w < view_; });
  if (!fresh) {
    // With retransmission on, a duplicate prepare of the value already
    // prepared in this view re-announces update1: the proposer retransmits
    // prepares precisely because the update1 echoes it provoked may have
    // been lost, and receivers dedup update senders, so re-echoing is
    // idempotent. (Send-once mode drops duplicates silently, as before.)
    // Its payload is in Old already: it was archived when prep_ was
    // prepared in this view.
    if (config_.retry.enabled && prep_ == m.value &&
        prepview_.find(view_) != prepview_.end() &&
        (view_ == 0 || from == config_.leader_of(view_))) {
      send_update(1, prep_, view_, kInvalidQuorum);
    }
    return;
  }
  if (view_ != 0) {
    if (from != config_.leader_of(view_)) return;
    if (!vproof_valid(m.vproof, m.vproof_quorum)) return;
    const ChooseResult chosen =
        choose(m.value, m.vproof, m.vproof_quorum, *config_.rqs);
    if (chosen.abort || chosen.value != m.value) return;
  }
  // Line 32: prepare v in view.
  if (prep_ == m.value) {
    prepview_.insert(view_);
  } else {
    prep_ = m.value;
    prepview_ = {view_};
  }
  // Line 33: echo with update1.
  send_update(1, m.value, view_, kInvalidQuorum);
  old_.insert(SignedUpdate::payload(m.value, view_, 1));
}

void RqsAcceptor::on(ProcessId from, const UpdateMsg& m) {
  collect_update(from, m);
  // Decision rules (lines 51-53) apply to acceptors too.
  if (const auto v = tracker_.feed(from, m)) on_decided(*v);
}

void RqsAcceptor::collect_update(ProcessId from, const UpdateMsg& m) {
  if (m.step != 1 && m.step != 2) return;  // acceptors consume update1/2
  if (!config_.acceptors.contains(from)) return;
  if (m.view != view_) return;
  // Guard of lines 34-38: v = Prep and view in Prepview.
  if (m.value != prep_ || prepview_.find(view_) == prepview_.end()) return;

  ProcessSet& senders = update_senders_[{m.step, m.view, m.value}];
  senders.insert(from);

  // "received from some quorum Q": act on every covered quorum; the
  // Updateq test of lines 36-38 picks the ones that still owe an
  // update<step+1>. Lines 34-35 and the Updateq lookup give the same
  // result for every covered quorum of one call, so they run once, at the
  // first one.
  const RoundNumber step = m.step;
  std::set<QuorumId>* known = nullptr;  // Updateq[step, view]
  bool sent = false;
  config_.rqs->any_quorum(QuorumClass::Class3, [&](QuorumId qid) {
    if (!config_.rqs->quorum_set(qid).subset_of(senders)) return false;
    if (known == nullptr) {
      // Lines 34-35.
      if (update_[step] == m.value) {
        updateview_[step].insert(view_);
      } else {
        update_[step] = m.value;
        updateview_[step] = {view_};
        for (auto it = updateq_.begin(); it != updateq_.end();) {
          it = (it->first.first == step) ? updateq_.erase(it) : std::next(it);
        }
        for (auto it = updateproof_.begin(); it != updateproof_.end();) {
          it = (it->first.first == step) ? updateproof_.erase(it) : std::next(it);
        }
      }
      known = &updateq_[{step, view_}];
    }
    // Lines 36-38.
    const bool fresh_quorum =
        (step == 1 && known->find(qid) == known->end()) ||
        (step == 2 && known->empty());
    if (fresh_quorum) {
      known->insert(qid);
      send_update(step + 1, m.value, view_, qid);
      sent = true;
    }
    return false;  // act on every covered quorum
  });
  if (sent) old_.insert(SignedUpdate::payload(m.value, view_, step + 1));
}

void RqsAcceptor::send_update(RoundNumber step, Value v, ViewNumber view,
                              QuorumId quorum) {
  const auto build = [&](Value value) {
    auto msg = make_msg<UpdateMsg>();
    msg->step = step;
    msg->value = value;
    msg->view = view;
    msg->quorum = quorum;
    return msg;
  };
  const sim::MessagePtr genuine = build(v);
  const ProcessSet targets = config_.acceptors_and_learners();
  const UpdateLie lie = update_lie(v, targets, step);
  if (lie.targets.empty() || lie.value == v) {
    send_all(targets, genuine);
    return;
  }
  for (const ProcessId target : targets) {
    send(target, lie.targets.contains(target) ? sim::MessagePtr(build(lie.value))
                                              : genuine);
  }
}

void RqsAcceptor::on(ProcessId from, const NewViewMsg& m) {
  // Line 21: view must advance, the sender must lead it, proof must match.
  if (m.view <= view_) {
    // With retransmission on, a duplicate new_view for the *current* view
    // restarts the ack flow: the sign requests or the new_view_ack this
    // acceptor previously produced may have been lost.
    if (config_.retry.enabled && m.view == view_ && view_ != 0 &&
        from == config_.leader_of(view_) &&
        view_proof_valid(m.view_proof, m.view)) {
      begin_new_view_ack(from, m.view);
    }
    return;
  }
  if (from != config_.leader_of(m.view)) return;
  if (!view_proof_valid(m.view_proof, m.view)) return;
  view_ = m.view;  // line 22
  begin_new_view_ack(from, m.view);
}

void RqsAcceptor::begin_new_view_ack(ProcessId from, ViewNumber view) {
  // Lines 23-27: gather missing Updateproof signature sets.
  PendingAck pending;
  pending.proposer = from;
  pending.view = view;
  for (RoundNumber step = 1; step <= 2; ++step) {
    for (const ViewNumber w : updateview_[step]) {
      const StepView key{step, w};
      if (!updateproof_[key].empty()) continue;
      pending.needed.insert(key);
      sign_collect_[key].clear();
      // Line 24: ask a quorum that performed the update.
      const auto qit = updateq_.find(key);
      ProcessSet targets = config_.acceptors;
      if (qit != updateq_.end() && !qit->second.empty()) {
        targets = config_.rqs->quorum_set(*qit->second.begin());
      }
      auto req = make_msg<SignReqMsg>();
      req->value = update_[step];
      req->view = w;
      req->step = step;
      send_all(targets, std::move(req));
    }
  }
  pending_ack_ = std::move(pending);
  try_complete_pending_ack();
}

void RqsAcceptor::on(ProcessId from, const SignReqMsg& m) {
  // Line 29: only sign update messages this acceptor really sent.
  const std::string payload = SignedUpdate::payload(m.value, m.view, m.step);
  if (old_.find(payload) == old_.end()) return;
  auto ack = make_msg<SignAckMsg>();
  ack->update.value = m.value;
  ack->update.view = m.view;
  ack->update.step = m.step;
  ack->update.signer = id();
  ack->update.signature = signer_.sign(payload);
  send(from, std::move(ack));
}

void RqsAcceptor::on(ProcessId from, const SignAckMsg& m) {
  if (!pending_ack_) return;
  const StepView key{m.update.step, m.update.view};
  if (pending_ack_->needed.find(key) == pending_ack_->needed.end()) return;
  // The signature must verify and must match this acceptor's update value.
  if (m.update.signer != from) return;
  if (update_[m.update.step] != m.update.value) return;
  if (!config_.authority->verify(m.update.signature, from, m.update.payload())) {
    return;
  }
  sign_collect_[key][from] = m.update;
  try_complete_pending_ack();
}

void RqsAcceptor::on(ProcessId from, const DecisionPullMsg& /*m*/) {
  // Fig. 15 line 40.
  if (tracker_.decided()) {
    auto reply = make_msg<DecisionMsg>();
    reply->value = tracker_.decision();
    send_all(config_.acceptors | ProcessSet::single(from), std::move(reply));
  }
}

void RqsAcceptor::try_complete_pending_ack() {
  if (!pending_ack_) return;
  // Line 26: every needed (step, w) requires signatures from a basic
  // subset T (not in B).
  for (auto it = pending_ack_->needed.begin(); it != pending_ack_->needed.end();) {
    const StepView key = *it;
    ProcessSet signers;
    for (const auto& [a, su] : sign_collect_[key]) signers.insert(a);
    if (config_.rqs->adversary().is_basic(signers)) {
      auto& proof = updateproof_[key];  // line 27
      proof.clear();
      for (const auto& [a, su] : sign_collect_[key]) proof.push_back(su);
      it = pending_ack_->needed.erase(it);
    } else {
      ++it;
    }
  }
  if (!pending_ack_->needed.empty()) return;

  // Line 28: send the signed new_view_ack.
  NewViewAckData data;
  data.view = view_;
  data.prep = prep_;
  data.prepview = prepview_;
  data.update = update_;
  data.updateview = updateview_;
  data.updateproof = updateproof_;
  data.updateq = updateq_;
  data = ack_to_send(data);

  auto ack = make_msg<NewViewAckMsg>();
  ack->data = data;
  ack->signer = id();
  ack->signature = signer_.sign(data.payload());
  send(pending_ack_->proposer, std::move(ack));
  pending_ack_.reset();
}

bool RqsAcceptor::vproof_valid(const VProof& vproof, ProcessSet q) const {
  // Every member of Q must have a signature-valid ack with valid
  // Updateproof sets. (Acceptors re-validate what the proposer validated:
  // a Byzantine proposer may ship garbage.)
  if (!config_.rqs->find(q).has_value()) return false;
  for (const ProcessId a : q) {
    const auto it = vproof.find(a);
    if (it == vproof.end()) return false;
    if (!updateproof_valid(it->second, *config_.authority, config_.rqs->adversary())) {
      return false;
    }
  }
  return true;
}

bool RqsAcceptor::view_proof_valid(const std::vector<SignedViewChange>& proof,
                                   ViewNumber view) const {
  ProcessSet signers;
  for (const SignedViewChange& vc : proof) {
    if (vc.next_view != view) continue;
    if (!config_.authority->verify(vc.signature, vc.signer, vc.payload())) continue;
    if (config_.acceptors.contains(vc.signer)) signers.insert(vc.signer);
  }
  return config_.rqs->has_quorum_in(signers);
}

void RqsAcceptor::on_decided(Value v) {
  if (auto* ob = sim().observer()) {
    // Decision rules 1/2/3 (Fig. 15 lines 51-53) are the class-1/2/3
    // ladder positions of consensus.
    const RoundNumber step = tracker_.decided_step();
    ob->count(step == 1 ? "consensus.decide.rule1"
                        : step == 2 ? "consensus.decide.rule2"
                                    : "consensus.decide.rule3");
    ob->record_latency("consensus.decide.view", static_cast<std::int64_t>(
                                                    tracker_.decided_view()));
    ob->quorum_class(now(), id(), obs::kPhaseDecide,
                     static_cast<std::uint8_t>(step),
                     tracker_.decided_view());
  }
  // Election, Fig. 14 line 7: help others stop their timers.
  auto msg = make_msg<DecisionMsg>();
  msg->value = v;
  send_all(config_.acceptors, std::move(msg));
}

// ---------------------------------------------------------------------------
// Election module.
// ---------------------------------------------------------------------------

// Protocol-visible locking/election state, field by field over the ordered
// containers (never raw bytes). Excluded as observations: timer handles
// (suspect_armed_/timeout carry the protocol-visible bits), the signer and
// the tracker's sender tallies beyond the decision itself.
void RqsAcceptor::digest_state(Fnv64& h) const {
  h.mix(view_);
  h.mix(static_cast<std::uint64_t>(prep_));
  h.mix(prepview_.size());
  for (const ViewNumber w : prepview_) h.mix(w);
  for (const Value v : update_) h.mix(static_cast<std::uint64_t>(v));
  for (const auto& views : updateview_) {
    h.mix(views.size());
    for (const ViewNumber w : views) h.mix(w);
  }
  h.mix(updateq_.size());
  for (const auto& [key, quorums] : updateq_) {
    h.mix(key.first);
    h.mix(key.second);
    h.mix(quorums.size());
    for (const QuorumId q : quorums) h.mix(q);
  }
  h.mix(updateproof_.size());
  for (const auto& [key, proof] : updateproof_) {
    h.mix(key.first);
    h.mix(key.second);
    h.mix(proof.size());
    for (const SignedUpdate& su : proof) {
      h.mix(static_cast<std::uint64_t>(su.value));
      h.mix(su.view);
      h.mix(su.step);
      h.mix(su.signer);
    }
  }
  h.mix(old_.size());
  for (const std::string& payload : old_) {
    h.mix(payload.size());
    for (const char c : payload) h.mix(static_cast<unsigned char>(c));
  }
  h.mix(update_senders_.size());
  for (const auto& [key, senders] : update_senders_) {
    h.mix(std::get<0>(key));
    h.mix(std::get<1>(key));
    h.mix(static_cast<std::uint64_t>(std::get<2>(key)));
    digest_into(h, senders);
  }
  h.mix(pending_ack_ ? 1 : 0);
  if (pending_ack_) {
    h.mix(pending_ack_->proposer);
    h.mix(pending_ack_->view);
    h.mix(pending_ack_->needed.size());
    for (const StepView& key : pending_ack_->needed) {
      h.mix(key.first);
      h.mix(key.second);
    }
  }
  h.mix(suspect_stopped_ ? 1 : 0);
  h.mix(next_view_);
  h.mix(decision_senders_.size());
  for (const auto& [v, senders] : decision_senders_) {
    h.mix(static_cast<std::uint64_t>(v));
    digest_into(h, senders);
  }
  h.mix(tracker_.decided() ? 1 : 0);
  h.mix(static_cast<std::uint64_t>(tracker_.decision()));
}

void RqsAcceptor::on(ProcessId /*from*/, const SyncMsg& /*m*/) {
  arm_suspect_timer();  // Fig. 14 line 0
}

void RqsAcceptor::on(ProcessId from, const DecisionMsg& dec) {
  // Fig. 14 line 8: a quorum of decision messages stops the timer.
  ProcessSet& senders = decision_senders_[dec.value];
  if (config_.acceptors.contains(from)) senders.insert(from);
  if (config_.rqs->has_quorum_in(senders)) {
    suspect_stopped_ = true;
    if (suspect_armed_) cancel_timer(suspect_timer_);
  }
}

void RqsAcceptor::arm_suspect_timer() {
  if (suspect_armed_ || suspect_stopped_) return;
  suspect_armed_ = true;
  suspect_timer_ = set_timer(suspect_timeout_);
}

void RqsAcceptor::on_timer(sim::TimerId timer) {
  if (timer != suspect_timer_ || suspect_stopped_) return;
  // Fig. 14 lines 1-5: exponential backoff, vote for the next leader.
  suspect_timeout_ *= 2;
  ++next_view_;
  const ProcessId next_leader = config_.leader_of(next_view_);
  auto msg = make_msg<ViewChangeMsg>();
  msg->change.next_view = next_view_;
  msg->change.signer = id();
  msg->change.signature = signer_.sign(SignedViewChange::payload(next_view_));
  send(next_leader, std::move(msg));
  suspect_timer_ = set_timer(suspect_timeout_);
}

}  // namespace rqs::consensus
