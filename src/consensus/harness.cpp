#include "consensus/harness.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rqs::consensus {

namespace {

/// Acceptors take ids 0..n-1, proposers kFirstProposerId.. and learners
/// kFirstLearnerId.., all below ProcessSet::kMaxProcesses. A hard runtime
/// check, as in StorageCluster: otherwise an overlap fails the
/// registration of a taken id and an id past the ProcessSet aborts in its
/// bounds guard, and neither names the field at fault.
void check_id_layout(std::size_t acceptors, const ClusterConfig& cfg) {
  const auto require = [](const char* field, std::size_t value,
                          std::size_t bound, const char* why) {
    if (value > bound) {
      throw std::invalid_argument(std::string("ConsensusCluster: ") + field +
                                  " = " + std::to_string(value) +
                                  " exceeds " + std::to_string(bound) + " (" +
                                  why + ")");
    }
  };
  require("rqs.universe_size()", acceptors, kFirstProposerId,
          "acceptor ids must stay below the first proposer id");
  require("proposer_count", cfg.proposer_count,
          kFirstLearnerId - kFirstProposerId,
          "proposer ids must stay below the first learner id");
  require("learner_count", cfg.learner_count,
          ProcessSet::kMaxProcesses - kFirstLearnerId,
          "learner ids must stay below the ProcessSet id space");
}

}  // namespace

ConsensusCluster::ConsensusCluster(RefinedQuorumSystem rqs,
                                   const ClusterConfig& cfg)
    : sim_(cfg.delta), rqs_(std::move(rqs)) {
  check_id_layout(rqs_.universe_size(), cfg);
  config_.rqs = &rqs_;
  config_.authority = &authority_;
  config_.retry = cfg.retry;
  config_.acceptors = ProcessSet::universe(rqs_.universe_size());
  for (std::size_t i = 0; i < cfg.proposer_count; ++i) {
    config_.proposers.push_back(kFirstProposerId + static_cast<ProcessId>(i));
  }
  for (std::size_t i = 0; i < cfg.learner_count; ++i) {
    config_.learners.insert(kFirstLearnerId + static_cast<ProcessId>(i));
  }
  for (ProcessId id = 0; id < rqs_.universe_size(); ++id) {
    if (cfg.amnesiac_acceptors.contains(id)) {
      acceptors_.push_back(std::make_unique<AmnesiacAcceptor>(sim_, id, config_));
    } else if (cfg.prep_liar_acceptors.contains(id)) {
      acceptors_.push_back(
          std::make_unique<PrepLiarAcceptor>(sim_, id, config_, cfg.fake_value));
    } else if (cfg.byzantine_acceptors.contains(id)) {
      acceptors_.push_back(
          std::make_unique<ByzantineAcceptor>(sim_, id, config_, cfg.fake_value));
    } else {
      acceptors_.push_back(std::make_unique<RqsAcceptor>(sim_, id, config_));
    }
  }
  for (std::size_t i = 0; i < cfg.proposer_count; ++i) {
    const ProcessId id = config_.proposers[i];
    if (i == 0 && cfg.byzantine_proposer) {
      proposers_.push_back(
          std::make_unique<ByzantineProposer>(sim_, id, config_, cfg.fake_value));
    } else {
      proposers_.push_back(std::make_unique<RqsProposer>(sim_, id, config_));
    }
  }
  for (std::size_t i = 0; i < cfg.learner_count; ++i) {
    learners_.push_back(std::make_unique<RqsLearner>(
        sim_, kFirstLearnerId + static_cast<ProcessId>(i), config_));
  }
}

void ConsensusCluster::propose(std::size_t i, Value v) {
  if (!first_propose_time_) first_propose_time_ = sim_.now();
  proposers_.at(i)->propose(v);
}

bool ConsensusCluster::run_until_learned(sim::SimTime deadline_deltas) {
  return sim_.run_until(
      [this] {
        return std::all_of(learners_.begin(), learners_.end(),
                           [this](const auto& l) {
                             return sim_.crashed(l->id()) || l->learned();
                           });
      },
      sim_.now() + deadline_deltas * sim_.delta());
}

std::optional<sim::SimTime> ConsensusCluster::learn_delays(std::size_t i) const {
  const RqsLearner& l = *learners_.at(i);
  if (!l.learned() || !first_propose_time_) return std::nullopt;
  return (l.learn_time() - *first_propose_time_) / sim_.delta();
}

std::optional<Value> ConsensusCluster::agreed_value() const {
  std::optional<Value> agreed;
  for (const auto& l : learners_) {
    if (!l->learned()) continue;
    if (agreed && *agreed != l->learned_value()) return std::nullopt;
    agreed = l->learned_value();
  }
  return agreed;
}

}  // namespace rqs::consensus
