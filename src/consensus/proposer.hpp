// RQS consensus: proposer automaton (Figures 9, 12, 14, 15).
//
// A proposer proposes its value directly in the initial view (update phase
// only); when elected for a later view it first runs the consult phase:
// new_view to all acceptors, collect signature-valid new_view_acks until
// some quorum Q (not known faulty) is covered, run choose() — on abort
// mark Q faulty and wait for another quorum — then send prepare with the
// chosen value and the vProof.
#pragma once

#include <set>

#include "consensus/choose.hpp"
#include "consensus/config.hpp"
#include "sim/process.hpp"
#include "sim/retransmitter.hpp"

namespace rqs::consensus {

/// Drops every type but new_view_ack, view_change and decision: the rest
/// are acceptor-bound (Fig. 14 sends them to the acceptor set), so a
/// proposer is never a recipient.
class RqsProposer
    : public sim::ProcessOf<
          RqsProposer, Messages,
          sim::MessageList<PrepareMsg, UpdateMsg, NewViewMsg, SignReqMsg,
                           SignAckMsg, DecisionPullMsg, SyncMsg>> {
 public:
  RqsProposer(sim::Simulation& sim, ProcessId id, const ConsensusConfig& config);

  /// Proposes `v` (in the current view). Fig. 9: in initView the consult
  /// phase is skipped.
  void propose(Value v);

  [[nodiscard]] bool halted() const noexcept { return halted_; }
  [[nodiscard]] ViewNumber current_view() const noexcept { return view_; }

  void on(ProcessId from, const NewViewAckMsg& ack);
  void on(ProcessId from, const ViewChangeMsg& vc);
  void on(ProcessId from, const DecisionMsg& dec);
  void digest_state(Fnv64& h) const override;

 protected:
  /// Hook for Byzantine subclasses: the value actually put in the prepare
  /// message sent to `target` (benign proposers never equivocate).
  [[nodiscard]] virtual Value prepare_value_for(Value genuine, ProcessId target) {
    (void)target;
    return genuine;
  }

  [[nodiscard]] const ConsensusConfig& config() const noexcept { return config_; }

 private:
  void run_propose();
  void try_choose_and_prepare();
  void send_prepare(Value v, const VProof& vproof, ProcessSet q);
  void broadcast_prepare();
  [[nodiscard]] bool ack_valid(const NewViewAckMsg& m) const;
  /// The consult phase's new_view, shared by the first send and every
  /// retransmission.
  [[nodiscard]] sim::PooledMessage<NewViewMsg> new_view_msg();
  void start_retry();
  /// Fig. 14 lines 102-103: nudge the acceptors' suspicion timers with
  /// sync and pull any decision already reached.
  void probe();
  /// The retransmitter's reactions.
  void resend();
  void give_up();

  ConsensusConfig config_;
  sim::Signer signer_;

  Value value_{kNil};
  bool proposed_{false};
  bool halted_{false};
  ViewNumber view_{0};
  std::vector<SignedViewChange> view_proof_;

  // Consult phase bookkeeping (for view_).
  VProof acks_;
  std::set<ProcessSet> faulty_;  // quorums whose choose() aborted
  std::set<ProcessSet> prepared_quorums_;  // avoid duplicate prepares
  bool consulting_{false};

  // Election bookkeeping.
  std::map<ViewNumber, std::map<ProcessId, SignedViewChange>> view_changes_;
  std::map<Value, ProcessSet> decision_senders_;
  // Fig. 14 line 101: the preset time before the first probe.
  sim::Timer sync_{*this, [this] { if (!halted_) probe(); }};

  // Retransmission (dormant unless config.retry.enabled). The proposer
  // resends its current phase's broadcast — the consult new_view or the
  // last prepare — plus a sync/decision probe, on a backoff schedule; once
  // the retransmitter gives up it goes quiet and the acceptors' exponen-
  // tially backed-off suspicion timers (the view-change ladder) take over.
  sim::Retransmitter retx_;
  Value prepared_value_{kNil};
  VProof prepared_vproof_;
  ProcessSet prepared_quorum_;
  bool prepare_sent_{false};
};

/// A Byzantine proposer that equivocates in the initial view: even-id
/// acceptors receive one value, odd-id acceptors another. (In later views
/// acceptors validate the vProof, so equivocation is only interesting in
/// view 0.)
class ByzantineProposer final : public RqsProposer {
 public:
  ByzantineProposer(sim::Simulation& sim, ProcessId id,
                    const ConsensusConfig& config, Value second_value)
      : RqsProposer(sim, id, config), second_value_(second_value) {}

 protected:
  [[nodiscard]] Value prepare_value_for(Value genuine, ProcessId target) override {
    return (target % 2 == 0) ? genuine : second_value_;
  }

 private:
  Value second_value_;
};

}  // namespace rqs::consensus
