// Scenario harness wiring a consensus deployment inside the simulator:
// acceptors 0..n-1 (benign or Byzantine), proposers, learners, and
// convenience drivers measuring learning latency in message delays.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "consensus/acceptor.hpp"
#include "consensus/learner.hpp"
#include "consensus/proposer.hpp"
#include "sim/network.hpp"

namespace rqs::consensus {

/// Named deployment parameters for a ConsensusCluster; the scenario layer
/// (src/scenario/deployment.hpp) builds deployments from this struct. The
/// role sets must be disjoint; precedence when they are not: amnesiac >
/// prep-liar > byzantine.
struct ClusterConfig {
  std::size_t proposer_count{1};
  std::size_t learner_count{1};
  ProcessSet byzantine_acceptors{};  ///< equivocate / lie with fake_value
  ProcessSet amnesiac_acceptors{};   ///< forget accepted state across views
  ProcessSet prep_liar_acceptors{};  ///< lie in the prepare phase
  Value fake_value{-99};            ///< the value Byzantine roles push
  bool byzantine_proposer{false};   ///< proposer 0 proposes fake_value twice
  sim::SimTime delta{sim::kDefaultDelta};
  /// Retransmission policy for proposers and acceptors (disabled by
  /// default — the send-once paper automata). The scenario runner enables
  /// it whenever a spec schedules loss or duplication faults.
  RetryPolicy::Config retry{};
};

class ConsensusCluster {
 public:
  /// Creates `cfg.proposer_count` proposers (the first is Byzantine when
  /// `cfg.byzantine_proposer`), `cfg.learner_count` learners, and one
  /// acceptor per RQS element, with fault roles as per `cfg`.
  ConsensusCluster(RefinedQuorumSystem rqs, const ClusterConfig& cfg);

  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] sim::Network& network() noexcept { return sim_.network(); }
  [[nodiscard]] const RefinedQuorumSystem& rqs() const noexcept { return rqs_; }
  [[nodiscard]] const ConsensusConfig& config() const noexcept { return config_; }

  [[nodiscard]] RqsProposer& proposer(std::size_t i) { return *proposers_.at(i); }
  [[nodiscard]] RqsLearner& learner(std::size_t i) { return *learners_.at(i); }
  [[nodiscard]] RqsAcceptor& acceptor(ProcessId id) { return *acceptors_.at(id); }
  [[nodiscard]] std::size_t learner_count() const { return learners_.size(); }

  /// Schedules proposer i to propose v at the current simulation time and
  /// records the proposal time (latency is measured from the first one).
  void propose(std::size_t i, Value v);

  /// Runs until every learner has learned, or `deadline_deltas` virtual
  /// Deltas elapse. Returns true iff all learned.
  bool run_until_learned(sim::SimTime deadline_deltas = 1000);

  /// Message delays from the first proposal to learner i's learn time
  /// (latency in units of Delta, the paper's metric).
  [[nodiscard]] std::optional<sim::SimTime> learn_delays(std::size_t i) const;

  /// Agreement over learners: all that learned agree; returns the value
  /// (nullopt if none learned or they disagree).
  [[nodiscard]] std::optional<Value> agreed_value() const;

 private:
  sim::Simulation sim_;
  RefinedQuorumSystem rqs_;
  sim::SignatureAuthority authority_;
  ConsensusConfig config_;
  std::vector<std::unique_ptr<RqsAcceptor>> acceptors_;
  std::vector<std::unique_ptr<RqsProposer>> proposers_;
  std::vector<std::unique_ptr<RqsLearner>> learners_;
  std::optional<sim::SimTime> first_propose_time_;
};

}  // namespace rqs::consensus
