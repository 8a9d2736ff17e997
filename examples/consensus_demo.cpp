// Consensus demo: state-machine-replication front-end. Clients (proposers)
// submit commands to a replicated service whose acceptors form a refined
// quorum system; learners apply the agreed command. The demo shows the
// 2/3/4-delay latency ladder, a Byzantine acceptor, and recovery from an
// equivocating leader through the election module.
//
//   $ ./consensus_demo
#include <cstdio>

#include "consensus/harness.hpp"
#include "core/constructions.hpp"

using namespace rqs;
using namespace rqs::consensus;

namespace {

void banner(const char* text) { std::printf("\n-- %s --\n", text); }

void report(ConsensusCluster& cluster) {
  const auto agreed = cluster.agreed_value();
  if (!agreed) {
    std::printf("  no agreement reached within the deadline\n");
    return;
  }
  std::printf("  agreed command: %lld\n", static_cast<long long>(*agreed));
  for (std::size_t i = 0; i < cluster.learner_count(); ++i) {
    const auto d = cluster.learn_delays(i);
    if (d) {
      std::printf("  learner %zu learned after %lld message delays\n", i,
                  static_cast<long long>(*d));
    }
  }
}

}  // namespace

int main() {
  std::printf("Replicated service: 4 acceptors (t = 1 Byzantine), RQS "
              "3t+1 instantiation\n");

  {
    banner("best case: all correct, one proposer -> 2 message delays");
    ConsensusCluster cluster(make_3t1_instantiation(1),
                             {.proposer_count = 1, .learner_count = 2});
    cluster.propose(0, 7001);
    cluster.run_until_learned();
    report(cluster);
  }
  {
    banner("one acceptor crashed -> class 2 quorum, 3 message delays");
    ConsensusCluster cluster(make_3t1_instantiation(1),
                             {.proposer_count = 1, .learner_count = 2});
    cluster.sim().crash(0);
    cluster.propose(0, 7002);
    cluster.run_until_learned();
    report(cluster);
  }
  {
    banner("disseminating acceptor system -> 4 message delays");
    ConsensusCluster cluster(make_disseminating(4, 1, 1),
                             {.proposer_count = 1, .learner_count = 1});
    cluster.propose(0, 7003);
    cluster.run_until_learned();
    report(cluster);
  }
  {
    banner("Byzantine acceptor equivocating -> agreement still holds");
    ConsensusCluster cluster(make_3t1_instantiation(1),
                             {.proposer_count = 1, .learner_count = 2,
                              .byzantine_acceptors = ProcessSet{0}, .fake_value = -1});
    cluster.propose(0, 7004);
    cluster.run_until_learned();
    report(cluster);
  }
  {
    banner("equivocating *leader*: election module elects a backup");
    ConsensusCluster cluster(make_3t1_instantiation(1),
                             {.proposer_count = 2, .learner_count = 2, .fake_value = 8889,
                              .byzantine_proposer = true});
    cluster.propose(0, 8888);  // Byzantine: equivocates 8888 / 8889
    cluster.propose(1, 8890);  // honest backup
    cluster.run_until_learned(4000);
    report(cluster);
    ViewNumber v = 0;
    for (ProcessId a = 0; a < 4; ++a) {
      v = std::max(v, cluster.acceptor(a).current_view());
    }
    std::printf("  final view: %llu (view change%s happened)\n",
                static_cast<unsigned long long>(v), v == 1 ? "" : "s");
  }
  {
    banner("general adversary (Example 7) acceptor group");
    ConsensusCluster cluster(make_example7(), {.proposer_count = 1, .learner_count = 1});
    cluster.propose(0, 7005);
    cluster.run_until_learned();
    report(cluster);
  }
  std::printf("\nDone.\n");
  return 0;
}
