// Tests for the CrashPaxos baseline: correctness and its fixed 4-delay
// latency profile (the classic reference the RQS consensus beats).
#include "consensus/crash_paxos.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/network.hpp"

namespace rqs::consensus {
namespace {

class PaxosHarness {
 public:
  explicit PaxosHarness(std::size_t n, std::size_t proposers = 1,
                        std::size_t learners = 1)
      : acceptors_set_(ProcessSet::universe(n)) {
    for (std::size_t i = 0; i < learners; ++i) {
      learners_set_.insert(45 + static_cast<ProcessId>(i));
    }
    for (ProcessId id = 0; id < n; ++id) {
      acceptors_.push_back(
          std::make_unique<PaxosAcceptor>(sim_, id, learners_set_));
    }
    for (std::size_t i = 0; i < proposers; ++i) {
      proposers_.push_back(std::make_unique<PaxosProposer>(
          sim_, 30 + static_cast<ProcessId>(i), acceptors_set_));
    }
    for (std::size_t i = 0; i < learners; ++i) {
      learners_.push_back(std::make_unique<PaxosLearner>(
          sim_, 45 + static_cast<ProcessId>(i), n));
    }
  }

  sim::Simulation& sim() { return sim_; }
  PaxosProposer& proposer(std::size_t i) { return *proposers_.at(i); }
  PaxosLearner& learner(std::size_t i) { return *learners_.at(i); }

  bool run_until_learned(sim::SimTime deadline_deltas = 500) {
    return sim_.run_until(
        [this] {
          return std::all_of(learners_.begin(), learners_.end(),
                             [](const auto& l) { return l->learned(); });
        },
        sim_.now() + deadline_deltas * sim_.delta());
  }

 private:
  sim::Simulation sim_;
  ProcessSet acceptors_set_;
  ProcessSet learners_set_;
  std::vector<std::unique_ptr<PaxosAcceptor>> acceptors_;
  std::vector<std::unique_ptr<PaxosProposer>> proposers_;
  std::vector<std::unique_ptr<PaxosLearner>> learners_;
};

TEST(PaxosTest, SingleProposerDecides) {
  PaxosHarness h(5);
  h.proposer(0).propose(7);
  ASSERT_TRUE(h.run_until_learned());
  EXPECT_EQ(h.learner(0).learned_value(), 7);
}

TEST(PaxosTest, FourMessageDelays) {
  // 1a -> 1b -> 2a -> 2b(to learner): four delays from the proposal.
  PaxosHarness h(5);
  const auto t0 = h.sim().now();
  h.proposer(0).propose(7);
  ASSERT_TRUE(h.run_until_learned());
  EXPECT_EQ((h.learner(0).learn_time() - t0) / sim::kDefaultDelta, 4);
}

TEST(PaxosTest, ToleratesMinorityCrashes) {
  PaxosHarness h(5);
  h.sim().crash(0);
  h.sim().crash(1);
  h.proposer(0).propose(9);
  ASSERT_TRUE(h.run_until_learned());
  EXPECT_EQ(h.learner(0).learned_value(), 9);
}

TEST(PaxosTest, ContendingProposersAgree) {
  PaxosHarness h(5, 2, 2);
  h.proposer(0).propose(1);
  h.proposer(1).propose(2);
  ASSERT_TRUE(h.run_until_learned(2000));
  const Value v = h.learner(0).learned_value();
  EXPECT_TRUE(v == 1 || v == 2);
  EXPECT_EQ(h.learner(1).learned_value(), v);
}

TEST(PaxosTest, PreemptedProposerAdoptsAcceptedValue) {
  // p0 gets 3 accepted; p1 then proposes 5 with a higher ballot and must
  // adopt 3 (it finds the accepted value in phase 1).
  PaxosHarness h(3, 2, 1);
  h.proposer(0).propose(3);
  ASSERT_TRUE(h.run_until_learned());
  h.proposer(1).propose(5);
  h.sim().run(h.sim().now() + 50 * sim::kDefaultDelta);
  EXPECT_EQ(h.learner(0).learned_value(), 3);
}

// A rule stretching P2a delivery beyond the initial retry timeout. Under
// the old fixed 8-Delta retry timer this livelocked: every round's phase 2
// was preempted (by the proposer's own next ballot, or a rival's) before
// the accepts could land, forever. The capped-exponential backoff must
// grow past the phase-2 round trip and terminate.
std::size_t delay_phase2(sim::Network& net, sim::SimTime by) {
  return net.add_rule(
      [by](ProcessId, ProcessId, sim::SimTime,
           const sim::Message& m) -> std::optional<std::optional<sim::SimTime>> {
        if (m.tag() != "P2A") return std::nullopt;  // rule not engaged
        return std::optional<sim::SimTime>{by};
      });
}

TEST(PaxosTest, BackoffOutgrowsSlowPhaseTwo) {
  PaxosHarness h(5);
  delay_phase2(h.sim().network(), 10 * sim::kDefaultDelta);
  h.proposer(0).propose(7);
  ASSERT_TRUE(h.run_until_learned(2000));
  EXPECT_EQ(h.learner(0).learned_value(), 7);
}

TEST(PaxosTest, DuellingProposersTerminate) {
  // Two proposers preempting each other across a slow phase 2: with the
  // fixed timer both retried in lockstep at the same instants and neither
  // ever got a full phase-1 + phase-2 window to itself. Per-process jitter
  // plus backoff desynchronizes them.
  PaxosHarness h(5, 2, 2);
  delay_phase2(h.sim().network(), 10 * sim::kDefaultDelta);
  h.proposer(0).propose(1);
  h.proposer(1).propose(2);
  ASSERT_TRUE(h.run_until_learned(4000));
  const Value v = h.learner(0).learned_value();
  EXPECT_TRUE(v == 1 || v == 2);
  EXPECT_EQ(h.learner(1).learned_value(), v);
}

TEST(PaxosTest, RetryDelaysAreJitteredPerProcess) {
  // The two proposer ids must draw distinct delay sequences from the same
  // config — that asymmetry is what breaks lockstep duels.
  RetryPolicy::Config cfg;
  cfg.enabled = true;
  cfg.base_delay = 8 * sim::kDefaultDelta;
  bool differ = false;
  for (std::uint32_t attempt = 1; attempt <= 4 && !differ; ++attempt) {
    differ = RetryPolicy::delay(cfg, std::uint64_t{30} << 32, attempt) !=
             RetryPolicy::delay(cfg, std::uint64_t{31} << 32, attempt);
  }
  EXPECT_TRUE(differ);
}

TEST(PaxosTest, RetriesAfterPartitionHeals) {
  PaxosHarness h(3);
  const std::size_t rule = h.sim().network().block(
      ProcessSet{30}, ProcessSet::universe(3));
  h.proposer(0).propose(4);
  h.sim().run(h.sim().now() + 10 * sim::kDefaultDelta);
  EXPECT_FALSE(h.learner(0).learned());
  h.sim().network().remove_rule(rule);
  ASSERT_TRUE(h.run_until_learned(2000));
  EXPECT_EQ(h.learner(0).learned_value(), 4);
}

}  // namespace
}  // namespace rqs::consensus
