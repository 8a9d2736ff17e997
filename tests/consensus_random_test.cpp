// Randomized property tests for the RQS consensus: across random network
// schedules (jitter, pre-GST loss), proposer contention and Byzantine
// acceptors, Agreement and Validity always hold, and Termination holds
// once the system stabilizes.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "consensus/harness.hpp"
#include "core/constructions.hpp"
#include "sim/network.hpp"

namespace rqs::consensus {
namespace {

enum class SystemKind { kThreeT1, kThreeT2, kExample7, kMasking };

RefinedQuorumSystem make_system(SystemKind kind) {
  switch (kind) {
    case SystemKind::kThreeT1: return make_3t1_instantiation(1);
    case SystemKind::kThreeT2: return make_3t1_instantiation(2);
    case SystemKind::kExample7: return make_example7();
    case SystemKind::kMasking: return make_masking(4, 1, 1);
  }
  return make_3t1_instantiation(1);
}

struct RandomCase {
  SystemKind kind;
  std::uint64_t seed;
  bool byzantine_acceptor;
  bool contention;  // two proposers with different values
  bool lossy_start; // drop 30% of messages before GST
};

class ConsensusRandomTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(ConsensusRandomTest, AgreementAndValidityAlways) {
  const RandomCase param = GetParam();
  const RefinedQuorumSystem sys = make_system(param.kind);

  ProcessSet byz;
  if (param.byzantine_acceptor) {
    for (ProcessId id = 0; id < sys.universe_size(); ++id) {
      if (sys.adversary().contains(ProcessSet::single(id))) {
        byz = ProcessSet::single(id);
        break;
      }
    }
  }
  ConsensusCluster cluster(sys,
                           {.proposer_count = 2, .learner_count = 2,
                            .byzantine_acceptors = byz, .fake_value = -3});

  auto rng = std::make_shared<Rng>(param.seed);
  const sim::SimTime gst = 25 * sim::kDefaultDelta;
  if (param.lossy_start) {
    cluster.network().add_rule(
        [rng, gst](ProcessId, ProcessId, sim::SimTime now, const sim::Message&)
            -> std::optional<std::optional<sim::SimTime>> {
          if (now < gst && rng->chance(0.3)) return std::optional<sim::SimTime>{};
          return std::nullopt;
        });
  } else {
    // Random per-message jitter within the synchrony bound.
    cluster.network().add_rule(
        [rng](ProcessId, ProcessId, sim::SimTime, const sim::Message&)
            -> std::optional<std::optional<sim::SimTime>> {
          return std::optional<sim::SimTime>{
              rng->uniform(sim::kDefaultDelta / 2, sim::kDefaultDelta)};
        });
  }

  cluster.propose(0, 100);
  if (param.contention) cluster.propose(1, 200);

  ASSERT_TRUE(cluster.run_until_learned(8000))
      << "no termination (seed " << param.seed << ")";
  const auto agreed = cluster.agreed_value();
  ASSERT_TRUE(agreed.has_value()) << "agreement violated";
  // Validity: benign proposers proposed 100/200; the Byzantine *acceptor*
  // fake (-3) must never win.
  EXPECT_TRUE(*agreed == 100 || *agreed == 200) << "learned " << *agreed;
  // Acceptors that decided agree with the learners.
  for (ProcessId a = 0; a < sys.universe_size(); ++a) {
    if (byz.contains(a)) continue;
    if (cluster.acceptor(a).decided()) {
      EXPECT_EQ(cluster.acceptor(a).decision(), *agreed);
    }
  }
}

std::vector<RandomCase> make_cases() {
  std::vector<RandomCase> cases;
  for (const SystemKind kind : {SystemKind::kThreeT1, SystemKind::kThreeT2,
                                SystemKind::kExample7, SystemKind::kMasking}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      cases.push_back(RandomCase{kind, seed, false, false, false});
      cases.push_back(RandomCase{kind, seed * 13, false, true, false});
      cases.push_back(RandomCase{kind, seed * 101, true, false, false});
      cases.push_back(RandomCase{kind, seed * 1009, true, true, true});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Schedules, ConsensusRandomTest,
                         ::testing::ValuesIn(make_cases()));

TEST(ConsensusCrashSweepTest, LatencyBoundedByAvailableClass) {
  // (m, QC_m)-fast across every tolerable crash pattern of the 3t+1
  // (t = 1) system: delays <= class(best available quorum) + 1.
  const RefinedQuorumSystem sys = make_3t1_instantiation(1);
  for (std::uint64_t mask = 0; mask < 16; ++mask) {
    const ProcessSet crashed = ProcessSet::from_mask(mask);
    if (crashed.size() > 1) continue;
    const auto best = sys.best_available(crashed.complement(4));
    ASSERT_TRUE(best.has_value());
    ConsensusCluster cluster(sys, {.proposer_count = 1, .learner_count = 1});
    for (const ProcessId id : crashed) cluster.sim().crash(id);
    cluster.propose(0, 5);
    ASSERT_TRUE(cluster.run_until_learned()) << crashed.to_string();
    const auto delays = cluster.learn_delays(0);
    ASSERT_TRUE(delays.has_value());
    EXPECT_LE(*delays,
              static_cast<sim::SimTime>(sys.quorum(*best).cls) + 1)
        << "crashed=" << crashed.to_string();
  }
}

}  // namespace
}  // namespace rqs::consensus
