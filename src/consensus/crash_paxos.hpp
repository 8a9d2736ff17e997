// Baseline: classic single-decree Paxos over majority quorums, tolerating
// a minority of crash failures (no Byzantine processes).
//
// The reference point for the latency comparison: Paxos needs two phases
// (prepare/promise then accept/accepted) before learners hear of a chosen
// value — four message delays from the proposal, under *crash-only*
// faults. The RQS consensus reaches two delays with a class 1 quorum while
// additionally tolerating Byzantine acceptors, and its init-view fast path
// subsumes Paxos' phase-2-only optimization.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "common/process_set.hpp"
#include "common/retry.hpp"
#include "common/types.hpp"
#include "sim/process.hpp"

namespace rqs::consensus {

/// Ballot number; globally ordered, disambiguated by proposer id.
struct Ballot {
  std::uint64_t round{0};
  ProcessId proposer{kInvalidProcess};

  friend bool operator==(const Ballot&, const Ballot&) = default;
  friend auto operator<=>(const Ballot&, const Ballot&) = default;
};

struct P1aMsg;
struct P1bMsg;
struct P2aMsg;
struct P2bMsg;
using PaxosMessages = sim::MessageList<P1aMsg, P1bMsg, P2aMsg, P2bMsg>;

struct P1aMsg final : sim::TypedMessage<P1aMsg, PaxosMessages, 64> {
  Ballot ballot;
  [[nodiscard]] std::string_view tag() const override { return "P1A"; }
};
struct P1bMsg final : sim::TypedMessage<P1bMsg, PaxosMessages, 128> {
  Ballot ballot;                       // the promised ballot
  std::optional<Ballot> accepted_ballot;
  Value accepted_value{kBottom};
  [[nodiscard]] std::string_view tag() const override { return "P1B"; }
};
struct P2aMsg final : sim::TypedMessage<P2aMsg, PaxosMessages, 64> {
  Ballot ballot;
  Value value{kBottom};
  [[nodiscard]] std::string_view tag() const override { return "P2A"; }
};
struct P2bMsg final : sim::TypedMessage<P2bMsg, PaxosMessages, 64> {
  Ballot ballot;
  Value value{kBottom};
  [[nodiscard]] std::string_view tag() const override { return "P2B"; }
};

/// Drops the phase replies, which go to the proposer (and learners).
class PaxosAcceptor final
    : public sim::ProcessOf<PaxosAcceptor, PaxosMessages,
                            sim::MessageList<P1bMsg, P2bMsg>> {
 public:
  PaxosAcceptor(sim::Simulation& sim, ProcessId id, ProcessSet learners)
      : ProcessOf(sim, id), learners_(learners) {}

  void on(ProcessId from, const P1aMsg& p1a);
  void on(ProcessId from, const P2aMsg& p2a);

 private:
  ProcessSet learners_;
  std::optional<Ballot> promised_;
  std::optional<Ballot> accepted_ballot_;
  Value accepted_value_{kBottom};
};

/// Drops the phase requests, which are acceptor-bound: a proposer only
/// hears the b-replies.
class PaxosProposer final
    : public sim::ProcessOf<PaxosProposer, PaxosMessages,
                            sim::MessageList<P1aMsg, P2aMsg>> {
 public:
  /// The preemption backoff is fixed: unlike the RQS roles it is always on
  /// (a send-once Paxos proposer cannot terminate once preempted), from an
  /// 8-Delta base with jitter seed 0. Per-process jitter keeps two
  /// concurrent proposers from duelling in lockstep.
  PaxosProposer(sim::Simulation& sim, ProcessId id, ProcessSet acceptors)
      : ProcessOf(sim, id), acceptors_(acceptors) {}

  /// Starts proposing v; retries with higher ballots (after a timeout) if
  /// preempted, until some value is chosen.
  void propose(Value v);

  void on(ProcessId from, const P1bMsg& p1b);
  void on(ProcessId from, const P2bMsg& p2b);

 private:
  void start_round();
  /// Preempted or partitioned: retry with a higher ballot.
  void retry();
  [[nodiscard]] std::size_t majority() const { return acceptors_.size() / 2 + 1; }

  ProcessSet acceptors_;
  Value value_{kBottom};
  Ballot ballot_;
  enum class Phase { kIdle, kPhase1, kPhase2 } phase_{Phase::kIdle};
  ProcessSet responders_;
  std::optional<Ballot> best_accepted_;
  Value best_value_{kBottom};
  std::uint32_t attempt_{0};
  sim::Timer retry_timer_{*this, [this] { retry(); }};
};

/// Counts only the P2b broadcast; the rest of the protocol never
/// addresses a learner.
class PaxosLearner final
    : public sim::ProcessOf<PaxosLearner, PaxosMessages,
                            sim::MessageList<P1aMsg, P1bMsg, P2aMsg>> {
 public:
  PaxosLearner(sim::Simulation& sim, ProcessId id, std::size_t acceptor_count)
      : ProcessOf(sim, id), acceptor_count_(acceptor_count) {}

  [[nodiscard]] bool learned() const noexcept { return learned_; }
  [[nodiscard]] Value learned_value() const noexcept { return value_; }
  [[nodiscard]] sim::SimTime learn_time() const noexcept { return learn_time_; }

  void on(ProcessId from, const P2bMsg& p2b);

 private:
  std::size_t acceptor_count_;
  std::map<std::pair<std::uint64_t, ProcessId>, ProcessSet> accepted_;
  bool learned_{false};
  Value value_{kBottom};
  sim::SimTime learn_time_{0};
};

}  // namespace rqs::consensus
