// Best-case behaviour of the RQS consensus (Section 4.2): learners learn
// in 2 / 3 / 4 message delays when a class 1 / 2 / 3 quorum of correct
// acceptors is available — the (m, QC_m)-fast claims — plus agreement and
// validity under benign conditions, and the cluster's process-id layout.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "consensus/harness.hpp"
#include "core/constructions.hpp"

namespace rqs::consensus {
namespace {

TEST(ConsensusBasicTest, BestCaseTwoDelaysWithClass1Quorum) {
  // 3t+1 (t = 1): QC1 = {all 4 acceptors}; everyone correct.
  ConsensusCluster cluster(make_3t1_instantiation(1),
                           {.proposer_count = 1, .learner_count = 2});
  cluster.propose(0, 7);
  ASSERT_TRUE(cluster.run_until_learned());
  EXPECT_EQ(cluster.agreed_value(), 7);
  for (std::size_t i = 0; i < cluster.learner_count(); ++i) {
    EXPECT_EQ(cluster.learn_delays(i), 2);
  }
}

TEST(ConsensusBasicTest, ThreeDelaysWithOnlyClass2Quorum) {
  // Crash one acceptor: the class 1 quorum (all 4) is gone; class 2
  // 3-subsets remain => 3 message delays.
  ConsensusCluster cluster(make_3t1_instantiation(1),
                           {.proposer_count = 1, .learner_count = 2});
  cluster.sim().crash(0);
  cluster.propose(0, 7);
  ASSERT_TRUE(cluster.run_until_learned());
  EXPECT_EQ(cluster.agreed_value(), 7);
  for (std::size_t i = 0; i < cluster.learner_count(); ++i) {
    EXPECT_EQ(cluster.learn_delays(i), 3);
  }
}

TEST(ConsensusBasicTest, FourDelaysWithOnlyClass3Quorums) {
  // Disseminating acceptor system (QC1 = QC2 = empty): no fast paths;
  // learning takes the full 4 message delays.
  ConsensusCluster cluster(make_disseminating(4, 1, 1),
                           {.proposer_count = 1, .learner_count = 2});
  cluster.propose(0, 9);
  ASSERT_TRUE(cluster.run_until_learned());
  EXPECT_EQ(cluster.agreed_value(), 9);
  for (std::size_t i = 0; i < cluster.learner_count(); ++i) {
    EXPECT_EQ(cluster.learn_delays(i), 4);
  }
}

TEST(ConsensusBasicTest, Example7TwoDelays) {
  ConsensusCluster cluster(make_example7(), {.proposer_count = 1, .learner_count = 2});
  cluster.propose(0, 3);
  ASSERT_TRUE(cluster.run_until_learned());
  EXPECT_EQ(cluster.agreed_value(), 3);
  EXPECT_EQ(cluster.learn_delays(0), 2);
}

TEST(ConsensusBasicTest, Example7ThreeDelaysWithoutClass1) {
  // Crash s5 (= 4): Q1 = {1,3,4,5} unavailable; Q2' = {0,1,2,3,5} is a
  // correct class 2 quorum.
  ConsensusCluster cluster(make_example7(), {.proposer_count = 1, .learner_count = 1});
  cluster.sim().crash(4);
  cluster.propose(0, 3);
  ASSERT_TRUE(cluster.run_until_learned());
  EXPECT_EQ(cluster.agreed_value(), 3);
  EXPECT_EQ(cluster.learn_delays(0), 3);
}

TEST(ConsensusBasicTest, MaskingSystemThreeDelays) {
  // Masking system: QC2 = RQS, QC1 empty => 3 message delays, never 2.
  ConsensusCluster cluster(make_masking(5, 1, 1),
                           {.proposer_count = 1, .learner_count = 1});
  cluster.propose(0, 4);
  ASSERT_TRUE(cluster.run_until_learned());
  EXPECT_EQ(cluster.agreed_value(), 4);
  EXPECT_EQ(cluster.learn_delays(0), 3);
}

TEST(ConsensusBasicTest, AcceptorsAlsoDecide) {
  ConsensusCluster cluster(make_3t1_instantiation(1),
                           {.proposer_count = 1, .learner_count = 1});
  cluster.propose(0, 11);
  ASSERT_TRUE(cluster.run_until_learned());
  cluster.sim().run(cluster.sim().now() + 20 * sim::kDefaultDelta);
  for (ProcessId a = 0; a < 4; ++a) {
    EXPECT_TRUE(cluster.acceptor(a).decided());
    EXPECT_EQ(cluster.acceptor(a).decision(), 11);
  }
}

TEST(ConsensusBasicTest, ProposerHaltsAfterDecision) {
  ConsensusCluster cluster(make_3t1_instantiation(1),
                           {.proposer_count = 1, .learner_count = 1});
  cluster.propose(0, 5);
  ASSERT_TRUE(cluster.run_until_learned());
  cluster.sim().run(cluster.sim().now() + 40 * sim::kDefaultDelta);
  EXPECT_TRUE(cluster.proposer(0).halted());
}

TEST(ConsensusBasicTest, TwoProposersContendAgreementHolds) {
  // Both proposers propose different values in the initial view; learners
  // must agree on one of them (validity + agreement). Depending on the
  // interleaving this may require a view change; termination within the
  // deadline is part of the assertion.
  ConsensusCluster cluster(make_3t1_instantiation(1),
                           {.proposer_count = 2, .learner_count = 2});
  cluster.propose(0, 1);
  cluster.propose(1, 2);
  ASSERT_TRUE(cluster.run_until_learned(2000));
  const auto agreed = cluster.agreed_value();
  ASSERT_TRUE(agreed.has_value());
  EXPECT_TRUE(*agreed == 1 || *agreed == 2);
}

TEST(ConsensusBasicTest, LatePullLearnerCatchesUp) {
  // A learner whose update messages were all lost still learns via the
  // decision-pull mechanism (Fig. 15 lines 101-103).
  ConsensusCluster cluster(make_3t1_instantiation(1),
                           {.proposer_count = 1, .learner_count = 2});
  const ProcessId late = kFirstLearnerId + 1;
  const std::size_t rule = cluster.network().block(
      ProcessSet::universe(4), ProcessSet{late});
  cluster.propose(0, 6);
  cluster.sim().run(cluster.sim().now() + 8 * sim::kDefaultDelta);
  EXPECT_TRUE(cluster.learner(0).learned());
  EXPECT_FALSE(cluster.learner(1).learned());
  cluster.network().remove_rule(rule);
  cluster.sim().run(cluster.sim().now() + 50 * sim::kDefaultDelta);
  EXPECT_TRUE(cluster.learner(1).learned());
  EXPECT_EQ(cluster.agreed_value(), 6);
}

TEST(ConsensusBasicTest, FastThresholdConfigIsAllOrNothing) {
  // Example 5's QC1 = QC2 = Q_q configuration (here q = 0, the
  // FastPaxos-like shape): 2 delays when everyone is up, but with any
  // acceptor crashed there is no class 2 middle ground — straight to 4.
  const RefinedQuorumSystem fast = make_fast_threshold(6, 1, 1, 0);
  ASSERT_TRUE(fast.valid());
  {
    ConsensusCluster cluster(fast, {.proposer_count = 1, .learner_count = 1});
    cluster.propose(0, 4);
    ASSERT_TRUE(cluster.run_until_learned());
    EXPECT_EQ(cluster.learn_delays(0), 2);
  }
  {
    ConsensusCluster cluster(fast, {.proposer_count = 1, .learner_count = 1});
    cluster.sim().crash(0);
    cluster.propose(0, 4);
    ASSERT_TRUE(cluster.run_until_learned());
    EXPECT_EQ(cluster.learn_delays(0), 4);
  }
}

TEST(ConsensusBasicTest, MessageComplexityBestCase) {
  // Best-case message complexity of one decision in the 3t+1 (t=1)
  // system: 1 prepare broadcast to 4 acceptors + 3 all-to-(acceptors+
  // learners) update waves from 4 acceptors, plus decision gossip.
  ConsensusCluster cluster(make_3t1_instantiation(1),
                           {.proposer_count = 1, .learner_count = 1});
  cluster.network().reset_counters();
  cluster.propose(0, 2);
  ASSERT_TRUE(cluster.run_until_learned());
  const auto& by_tag = cluster.network().sent_by_tag();
  EXPECT_EQ(by_tag.at("PREPARE"), 4u);
  // Each of 4 acceptors broadcasts update1 to 4 acceptors + 1 learner.
  EXPECT_EQ(by_tag.at("UPDATE1"), 20u);
  EXPECT_EQ(by_tag.count("NEW_VIEW"), 0u);  // no view change in best case
}

TEST(ConsensusBasicTest, DelaysOrderedByClassAcrossSystems) {
  // The latency ladder l1 < l2 < l3 (2 < 3 < 4 delays) across the three
  // configurations of the same 4-acceptor universe.
  std::vector<std::pair<RefinedQuorumSystem, sim::SimTime>> rows;
  rows.emplace_back(make_3t1_instantiation(1), 2);
  rows.emplace_back(make_masking(4, 1, 1), 3);
  rows.emplace_back(make_disseminating(4, 1, 1), 4);
  for (auto& [sys, expected] : rows) {
    ConsensusCluster cluster(std::move(sys), {.proposer_count = 1, .learner_count = 1});
    cluster.propose(0, 1);
    ASSERT_TRUE(cluster.run_until_learned());
    EXPECT_EQ(cluster.learn_delays(0), expected);
  }
}

/// The what() of the error a cluster throws for `cfg`, or "" if it builds.
std::string layout_error(RefinedQuorumSystem rqs, const ClusterConfig& cfg) {
  try {
    const ConsensusCluster cluster(std::move(rqs), cfg);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// The cheapest system over n processes: crash-only, one quorum.
RefinedQuorumSystem whole_set_system(std::size_t n) {
  return RefinedQuorumSystem(Adversary::none(n),
                             {Quorum{ProcessSet::universe(n)}});
}

TEST(ConsensusClusterLayoutTest, RoleIdCollisionsAreRefusedByField) {
  // Acceptors take ids 0..n-1, proposers 30..44 and learners 45..63.
  EXPECT_EQ(layout_error(whole_set_system(30), {}), "");
  EXPECT_NE(layout_error(whole_set_system(31), {}).find("universe_size"),
            std::string::npos);
  EXPECT_EQ(layout_error(make_3t1_instantiation(1),
                         {.proposer_count = 15, .learner_count = 19}),
            "");
  EXPECT_NE(layout_error(make_3t1_instantiation(1), {.proposer_count = 16})
                .find("proposer_count"),
            std::string::npos);
  EXPECT_NE(layout_error(make_3t1_instantiation(1), {.learner_count = 20})
                .find("learner_count"),
            std::string::npos);
}

TEST(ConsensusClusterLayoutTest, LargestLayoutDecides) {
  ConsensusCluster cluster(make_3t1_instantiation(1),
                           {.proposer_count = 15, .learner_count = 19});
  cluster.propose(0, 7);
  ASSERT_TRUE(cluster.run_until_learned());
  EXPECT_EQ(cluster.agreed_value(), 7);
  EXPECT_EQ(cluster.learn_delays(18), 2);  // learner id 63
}

}  // namespace
}  // namespace rqs::consensus
