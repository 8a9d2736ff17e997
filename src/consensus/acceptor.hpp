// RQS consensus: acceptor automaton — Locking module (Figure 15) and
// Election module (Figure 14).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "consensus/choose.hpp"
#include "consensus/config.hpp"
#include "consensus/decide_tracker.hpp"
#include "sim/process.hpp"

namespace rqs::consensus {

/// Drops new_view_ack and view_change: both are addressed to the (would-be)
/// leader proposer, never to an acceptor.
class RqsAcceptor
    : public sim::ProcessOf<RqsAcceptor, Messages,
                            sim::MessageList<NewViewAckMsg, ViewChangeMsg>> {
 public:
  RqsAcceptor(sim::Simulation& sim, ProcessId id, const ConsensusConfig& config);

  // Locking module (Fig. 15).
  void on(ProcessId from, const PrepareMsg& m);
  void on(ProcessId from, const UpdateMsg& m);
  void on(ProcessId from, const NewViewMsg& m);
  void on(ProcessId from, const SignReqMsg& m);
  void on(ProcessId from, const SignAckMsg& m);
  void on(ProcessId from, const DecisionPullMsg& m);
  // Election module (Fig. 14).
  void on(ProcessId from, const SyncMsg& m);
  void on(ProcessId from, const DecisionMsg& dec);
  void on_timer(sim::TimerId timer) override;
  void digest_state(Fnv64& h) const override;

  [[nodiscard]] bool decided() const noexcept { return tracker_.decided(); }
  [[nodiscard]] Value decision() const noexcept { return tracker_.decision(); }
  [[nodiscard]] ViewNumber current_view() const noexcept { return view_; }
  [[nodiscard]] Value prepared() const noexcept { return prep_; }

 protected:
  /// Hook for Byzantine subclasses: mutate the new_view_ack before it is
  /// signed and sent (benign acceptors return the genuine data).
  [[nodiscard]] virtual NewViewAckData ack_to_send(const NewViewAckData& genuine) {
    return genuine;
  }
  /// A lie told in one update broadcast: `targets` get `value` instead of
  /// the genuine value.
  struct UpdateLie {
    ProcessSet targets;
    Value value{kNil};
  };
  /// Hook for Byzantine subclasses: the lie, if any, in an update<step>
  /// broadcast of `genuine` to `targets` (benign acceptors are not
  /// equivocators). Asked once per broadcast, not once per target.
  [[nodiscard]] virtual UpdateLie update_lie(Value genuine, ProcessSet targets,
                                             RoundNumber step) {
    (void)genuine;
    (void)targets;
    (void)step;
    return {};
  }

  [[nodiscard]] const ConsensusConfig& config() const noexcept { return config_; }

 private:
  // --- Locking module ---
  /// Lines 34-38: the update1/update2 collection of on(UpdateMsg).
  void collect_update(ProcessId from, const UpdateMsg& m);
  void begin_new_view_ack(ProcessId from, ViewNumber view);
  /// Sends update<step>(v, view, quorum) to every acceptor and learner as
  /// one message shared by all targets that get the genuine value (each
  /// lie a Byzantine subclass tells goes out as its own message). Without
  /// a lie that is one send_all. Callers archive the signed payload in Old.
  void send_update(RoundNumber step, Value v, ViewNumber view, QuorumId quorum);
  void try_complete_pending_ack();
  void on_decided(Value v);
  [[nodiscard]] bool vproof_valid(const VProof& vproof, ProcessSet q) const;
  [[nodiscard]] bool view_proof_valid(const std::vector<SignedViewChange>& proof,
                                      ViewNumber view) const;

  // --- Election module ---
  void arm_suspect_timer();

  ConsensusConfig config_;
  sim::Signer signer_;
  DecideTracker tracker_;

  // Locking state (Figure 15 initialization).
  ViewNumber view_{0};
  Value prep_{kNil};
  std::set<ViewNumber> prepview_;
  std::array<Value, 3> update_{kNil, kNil, kNil};
  std::array<std::set<ViewNumber>, 3> updateview_;
  std::map<StepView, std::set<QuorumId>> updateq_;
  std::map<StepView, std::vector<SignedUpdate>> updateproof_;
  std::set<std::string> old_;  // payloads of update messages this acceptor sent

  // Collection of updatestep messages: senders per (step, view, value).
  std::map<std::tuple<RoundNumber, ViewNumber, Value>, ProcessSet> update_senders_;

  // Pending new_view we owe an ack for (waiting on sign_acks).
  struct PendingAck {
    ProcessId proposer{kInvalidProcess};
    ViewNumber view{0};
    std::set<StepView> needed;  // (step, w) pairs lacking Updateproof
  };
  std::optional<PendingAck> pending_ack_;
  std::map<StepView, std::map<ProcessId, SignedUpdate>> sign_collect_;

  // Election state.
  bool suspect_armed_{false};
  bool suspect_stopped_{false};
  sim::TimerId suspect_timer_{0};
  sim::SimTime suspect_timeout_;
  ViewNumber next_view_{0};
  std::map<Value, ProcessSet> decision_senders_;
};

/// A Byzantine acceptor that answers every new_view consult with a forged
/// "fresh" state — it denies having prepared or updated anything (the
/// sigma_0 forgery of the paper's lower-bound executions). Its signatures
/// are genuine signatures over the forged content; it simply lies.
class AmnesiacAcceptor final : public RqsAcceptor {
 public:
  AmnesiacAcceptor(sim::Simulation& sim, ProcessId id,
                   const ConsensusConfig& config)
      : RqsAcceptor(sim, id, config) {}

 protected:
  [[nodiscard]] NewViewAckData ack_to_send(const NewViewAckData& genuine) override {
    NewViewAckData forged;
    forged.view = genuine.view;  // a stale view would be rejected outright
    return forged;
  }
};

/// A Byzantine acceptor that follows the wire protocol but, in the consult
/// phase, denies all its updates and claims it prepared `fake_value` in
/// view 0. Prep claims carry no signatures, so the lie passes validation;
/// denying the updates kills every Cand3-'a' witness through this
/// acceptor, and the conflicting prepare makes Valid3 fail — forcing
/// choose() to abort on any quorum containing the liar (Fig. 13 line 18 /
/// Lemma 28 case (b): an abort proves a Byzantine acceptor inside Q).
class PrepLiarAcceptor final : public RqsAcceptor {
 public:
  PrepLiarAcceptor(sim::Simulation& sim, ProcessId id,
                   const ConsensusConfig& config, Value fake_value)
      : RqsAcceptor(sim, id, config), fake_value_(fake_value) {}

 protected:
  [[nodiscard]] NewViewAckData ack_to_send(const NewViewAckData& genuine) override {
    NewViewAckData forged;
    forged.view = genuine.view;
    forged.prep = fake_value_;
    forged.prepview = {0};
    return forged;  // updates denied entirely (no proofs to fake)
  }

 private:
  Value fake_value_;
};

/// A Byzantine acceptor that (a) equivocates update1 messages between two
/// values and (b) fabricates its prepared value in new_view_acks. It never
/// forges signatures (it cannot) — its lies are exactly those the model
/// allows.
class ByzantineAcceptor final : public RqsAcceptor {
 public:
  ByzantineAcceptor(sim::Simulation& sim, ProcessId id,
                    const ConsensusConfig& config, Value fake_value)
      : RqsAcceptor(sim, id, config), fake_value_(fake_value) {}

 protected:
  [[nodiscard]] NewViewAckData ack_to_send(const NewViewAckData& genuine) override {
    NewViewAckData forged = genuine;
    forged.prep = fake_value_;
    forged.prepview.insert(genuine.view == 0 ? 0 : genuine.view - 1);
    return forged;
  }
  [[nodiscard]] UpdateLie update_lie(Value genuine, ProcessSet targets,
                                     RoundNumber step) override {
    // Equivocate toward the even-numbered half of the targets in update1.
    (void)genuine;
    if (step != 1) return {};
    UpdateLie lie{{}, fake_value_};
    for (const ProcessId target : targets) {
      if (target % 2 == 0) lie.targets.insert(target);
    }
    return lie;
  }

 private:
  Value fake_value_;
};

}  // namespace rqs::consensus
