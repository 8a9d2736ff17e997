// Reproduction of Theorem 6: no consensus algorithm is both (1,Q1)-fast
// and (2,Q2)-fast when Property 3 is violated.
//
// Beyond checking the proof's negation witnesses, we run the *actual* RQS
// consensus algorithm over the P3-violating acceptor system and script the
// proof's adversarial schedule: a value is Decided-3 (seen by learner l1)
// in view 0, the round-2/3 messages toward acceptors are suppressed, two
// Byzantine acceptors deny everything in the consult phase, and the
// view-1 leader is steered toward the quorum whose intersection with the
// decision quorum is entirely Byzantine-or-suppressed. On the broken
// system choose() cannot see the decided value and a conflicting value is
// decided: agreement is violated. The identical schedule on the valid
// Example 7 system preserves agreement — Property 3(b)'s witness (s2)
// carries the decided value across the view change.
#include <gtest/gtest.h>

#include "consensus/harness.hpp"
#include "core/constructions.hpp"
#include "sim/network.hpp"

namespace rqs::consensus {
namespace {

RefinedQuorumSystem make_broken_example7() {
  Adversary adversary{6, {ProcessSet{}, ProcessSet{0, 1}, ProcessSet{2, 3},
                          ProcessSet{1, 3}}};
  std::vector<Quorum> quorums = {
      Quorum{ProcessSet{3, 4, 5}, QuorumClass::Class1},        // Q1m (no s2)
      Quorum{ProcessSet{0, 1, 2, 3, 4}, QuorumClass::Class2},  // Q2
      Quorum{ProcessSet{0, 1, 2, 3, 5}, QuorumClass::Class2},  // Q2'
  };
  return RefinedQuorumSystem{std::move(adversary), std::move(quorums)};
}

TEST(Theorem6Test, BrokenSystemViolatesP3WithProofWitnesses) {
  const RefinedQuorumSystem broken = make_broken_example7();
  CheckResult r;
  EXPECT_FALSE(broken.check_property3(r, 0));
  // The proof's decomposition (Section 4.3): Q2 n Q \ B1' = B2 in B and
  // Q1 n Q2 n Q \ B1' empty, with B0 = Q1 n Q2 n Q, B1 = Q2 n Q n B1'.
  const ProcessSet q1{3, 4, 5};
  const ProcessSet q2{0, 1, 2, 3, 4};
  const ProcessSet q{0, 1, 2, 3, 5};
  const ProcessSet b1p{2, 3};
  EXPECT_EQ((q2 & q) - b1p, (ProcessSet{0, 1}));
  EXPECT_TRUE(broken.adversary().contains(ProcessSet{0, 1}));
  EXPECT_TRUE(((q1 & q2 & q) - b1p).empty());
  EXPECT_EQ(q2 & q, (q2 & q & b1p) | (ProcessSet{0, 1}));
}

// Runs the Theorem 6 schedule over the given acceptor system. Returns
// (l1's value, l2's value) — both are guaranteed to have learned.
struct ScheduleOutcome {
  Value l1{kNil};
  Value l2{kNil};
  bool both_learned{false};
};

ScheduleOutcome run_theorem6_schedule(RefinedQuorumSystem rqs) {
  // Acceptors {2,3} are amnesiac consult-liars (Byzantine); learners:
  // l1 (index 0) sees the view-0 decision, l2 (index 1) is isolated until
  // view 1.
  ConsensusCluster cluster(std::move(rqs),
                           {.proposer_count = 2, .learner_count = 2,
                            .amnesiac_acceptors = ProcessSet{2, 3}, .fake_value = -9});
  auto& net = cluster.network();
  const ProcessId p0 = kFirstProposerId;
  const ProcessId p1 = kFirstProposerId + 1;
  const ProcessId l1 = kFirstLearnerId;
  const ProcessId l2 = kFirstLearnerId + 1;

  // View 0 scripting:
  //  - p0's messages never reach acceptor 5 (s6).
  net.block(ProcessSet{p0}, ProcessSet{5});
  //  - update2/update3 of view 0 reach ONLY learner l1 (suppressed toward
  //    acceptors and l2): the value is Decided-3 at l1 and nowhere else.
  net.add_rule([l1](ProcessId, ProcessId to, sim::SimTime, const sim::Message& m)
                   -> std::optional<std::optional<sim::SimTime>> {
    const auto* up = sim::msg_cast<UpdateMsg>(m);
    if (up != nullptr && up->step >= 2 && up->view == 0 && to != l1) {
      return std::optional<sim::SimTime>{};  // drop
    }
    return std::nullopt;
  });
  //  - l2 receives no view-0 update1 either (it must learn only in view 1).
  net.add_rule([l2](ProcessId, ProcessId to, sim::SimTime, const sim::Message& m)
                   -> std::optional<std::optional<sim::SimTime>> {
    const auto* up = sim::msg_cast<UpdateMsg>(m);
    if (up != nullptr && up->view == 0 && to == l2) {
      return std::optional<sim::SimTime>{};
    }
    return std::nullopt;
  });
  //  - during the view change, acceptor 4 (s5)'s messages to p1 are
  //    delayed forever: p1 can only assemble the quorum Q2' = {0,1,2,3,5}.
  net.block(ProcessSet{4}, ProcessSet{p1});

  // p0 proposes 1 (the value l1 will learn); p1 proposes 0 as its own.
  cluster.propose(0, 1);
  cluster.propose(1, 0);

  cluster.sim().run(cluster.sim().now() + 400 * sim::kDefaultDelta);
  ScheduleOutcome out;
  out.both_learned = cluster.learner(0).learned() && cluster.learner(1).learned();
  if (cluster.learner(0).learned()) out.l1 = cluster.learner(0).learned_value();
  if (cluster.learner(1).learned()) out.l2 = cluster.learner(1).learned_value();
  return out;
}

TEST(Theorem6Test, BrokenSystemAllowsAgreementViolation) {
  const ScheduleOutcome out = run_theorem6_schedule(make_broken_example7());
  ASSERT_TRUE(out.both_learned);
  EXPECT_EQ(out.l1, 1);  // Decided-3 in view 0 via Q2
  EXPECT_NE(out.l2, 1);  // the view change lost the decided value
}

TEST(Theorem6Test, ValidSystemPreservesAgreementUnderTheSameSchedule) {
  const ScheduleOutcome out = run_theorem6_schedule(make_example7());
  ASSERT_TRUE(out.both_learned);
  EXPECT_EQ(out.l1, 1);
  EXPECT_EQ(out.l2, 1);  // P3b's witness (s2) carried the value across
}

}  // namespace
}  // namespace rqs::consensus
