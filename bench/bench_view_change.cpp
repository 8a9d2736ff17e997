// Experiment E14 (Figure 14): cost of the election module. When the
// initial proposer misbehaves or the system is temporarily asynchronous,
// learning is delayed by the exponential-backoff view change; after GST
// the first well-timed view decides. The table reports delays-to-learn for
// faulty-leader scenarios against the best case.
#include "bench/bench_util.hpp"
#include "consensus/harness.hpp"
#include "core/constructions.hpp"
#include "sim/network.hpp"

namespace rqs::consensus {
namespace {

void print_tables() {
  rqs::bench::print_header(
      "E14: view-change cost (suspect timeout 5*Delta, doubling)",
      "best case 2 delays; faulty leader adds at least one timeout period");
  {
    ConsensusCluster cluster(make_3t1_instantiation(1),
                             {.proposer_count = 2, .learner_count = 1});
    cluster.propose(0, 1);
    cluster.run_until_learned();
    rqs::bench::print_row(
        "benign leader (no view change)",
        std::to_string(cluster.learn_delays(0).value_or(-1)) + " delays");
  }
  {
    // Equivocating Byzantine leader: view 0 cannot decide; p1 takes over.
    ConsensusCluster cluster(make_3t1_instantiation(1),
                             {.proposer_count = 2, .learner_count = 1, .fake_value = 21,
                              .byzantine_proposer = true});
    cluster.propose(0, 20);
    cluster.propose(1, 22);
    const bool ok = cluster.run_until_learned(4000);
    ViewNumber final_view = 0;
    for (ProcessId a = 0; a < 4; ++a) {
      final_view = std::max(final_view, cluster.acceptor(a).current_view());
    }
    rqs::bench::print_row(
        "equivocating leader, 1 view change",
        ok ? std::to_string(cluster.learn_delays(0).value_or(-1)) +
                 " delays, final view " + std::to_string(final_view)
           : "no decision");
  }
  {
    // Leader whose prepare reaches only half the acceptors, then crashes.
    ConsensusCluster cluster(make_3t1_instantiation(1),
                             {.proposer_count = 2, .learner_count = 1});
    cluster.network().block(ProcessSet{kFirstProposerId}, ProcessSet{2, 3});
    cluster.propose(0, 5);
    cluster.propose(1, 6);
    cluster.sim().schedule_at(2 * sim::kDefaultDelta, [&] {
      cluster.sim().crash(kFirstProposerId);
    });
    const bool ok = cluster.run_until_learned(4000);
    rqs::bench::print_row(
        "half-reaching leader crash",
        ok ? std::to_string(cluster.learn_delays(0).value_or(-1)) + " delays"
           : "no decision");
  }
  {
    // Asynchrony until GST = 20 Delta, then synchrony.
    ConsensusCluster cluster(make_3t1_instantiation(1),
                             {.proposer_count = 2, .learner_count = 1});
    const std::size_t slow = cluster.network().fixed_delay(
        ProcessSet::universe(64), ProcessSet::universe(64),
        6 * sim::kDefaultDelta);
    cluster.propose(0, 1);
    cluster.propose(1, 2);
    cluster.sim().schedule_at(20 * sim::kDefaultDelta, [&] {
      cluster.network().remove_rule(slow);
    });
    const bool ok = cluster.run_until_learned(4000);
    rqs::bench::print_row(
        "asynchronous until GST=20 Delta",
        ok ? std::to_string(cluster.learn_delays(0).value_or(-1)) + " delays"
           : "no decision");
  }
}

void BM_ViewChangeRecovery(benchmark::State& state) {
  for (auto _ : state) {
    ConsensusCluster cluster(make_3t1_instantiation(1),
                             {.proposer_count = 2, .learner_count = 1, .fake_value = 21,
                              .byzantine_proposer = true});
    cluster.propose(0, 20);
    cluster.propose(1, 22);
    benchmark::DoNotOptimize(cluster.run_until_learned(4000));
  }
}
BENCHMARK(BM_ViewChangeRecovery);

void BM_BestCaseNoViewChange(benchmark::State& state) {
  for (auto _ : state) {
    ConsensusCluster cluster(make_3t1_instantiation(1),
                             {.proposer_count = 2, .learner_count = 1});
    cluster.propose(0, 20);
    benchmark::DoNotOptimize(cluster.run_until_learned());
  }
}
BENCHMARK(BM_BestCaseNoViewChange);

}  // namespace
}  // namespace rqs::consensus

RQS_BENCH_MAIN(rqs::consensus::print_tables)
