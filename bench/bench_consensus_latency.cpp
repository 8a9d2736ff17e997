// Experiment E7 (Section 4.2): the consensus algorithm is (m, QC_m)-fast —
// learners learn in 2 / 3 / 4 message delays when a class 1 / 2 / 3 quorum
// of correct acceptors is available. Learning in a single delay is
// impossible with multiple/Byzantine proposers; 4 delays are always
// achievable given any correct quorum.
#include "bench/bench_util.hpp"
#include "consensus/crash_paxos.hpp"
#include "consensus/harness.hpp"
#include "core/constructions.hpp"
#include "obs/observer.hpp"

namespace rqs::consensus {
namespace {

struct Row {
  std::string label;
  RefinedQuorumSystem system;
  ProcessSet crashed;
  std::string claim;
};

void run_row(Row row) {
  ConsensusCluster cluster(std::move(row.system),
                           {.proposer_count = 1, .learner_count = 1});
  for (const ProcessId id : row.crashed) cluster.sim().crash(id);
  cluster.propose(0, 7);
  const bool ok = cluster.run_until_learned();
  const auto delays = cluster.learn_delays(0);
  rqs::bench::print_row(
      row.label,
      ok && delays ? std::to_string(*delays) + " message delays  (claim: " +
                         row.claim + ")"
                   : "DID NOT LEARN");
}

void print_tables() {
  rqs::bench::print_header(
      "E7: consensus best-case latency ladder",
      "learn in 2 delays w/ class 1 quorum, 3 w/ class 2, 4 w/ class 3");

  run_row({"3t+1 (t=1, n=4), all up [class 1]",
           make_3t1_instantiation(1), {}, "2"});
  run_row({"3t+1 (t=1), 1 crashed [class 2]",
           make_3t1_instantiation(1), ProcessSet{0}, "3"});
  run_row({"3t+1 (t=2, n=7), all up [class 1]",
           make_3t1_instantiation(2), {}, "2"});
  run_row({"3t+1 (t=2), 2 crashed [class 2]",
           make_3t1_instantiation(2), ProcessSet{0, 1}, "3"});
  run_row({"example7 (general adversary), all up [class 1]",
           make_example7(), {}, "2"});
  run_row({"example7, s5 crashed [class 2]",
           make_example7(), ProcessSet{4}, "3"});
  run_row({"masking (n=4,k=1) [class 2 only]",
           make_masking(4, 1, 1), {}, "3"});
  run_row({"disseminating (n=4,k=1) [class 3 only]",
           make_disseminating(4, 1, 1), {}, "4"});

  // Baseline: classic crash-only Paxos over 5 acceptors — always 4 delays
  // and no Byzantine tolerance at all.
  {
    sim::Simulation sim;
    const ProcessSet acceptors_set = ProcessSet::universe(5);
    std::vector<std::unique_ptr<PaxosAcceptor>> acceptors;
    for (ProcessId id = 0; id < 5; ++id) {
      acceptors.push_back(
          std::make_unique<PaxosAcceptor>(sim, id, ProcessSet{45}));
    }
    PaxosProposer proposer(sim, 30, acceptors_set);
    PaxosLearner learner(sim, 45, 5);
    const auto t0 = sim.now();
    proposer.propose(7);
    while (!learner.learned() && sim.step()) {
    }
    rqs::bench::print_row(
        "baseline: CrashPaxos (5 acceptors, crash-only)",
        std::to_string((learner.learn_time() - t0) / sim.delta()) +
            " message delays  (claim: 4, no Byzantine tolerance)");
  }
}

// Each iteration accumulates into a bench-owned observer; afterwards the
// sim-time learn latency (each cluster proposes at t=0) is reported as
// histogram percentiles in sim ticks (Delta = 1000). Observation is
// passive, so attaching the observer cannot change what the iterations do.
void report_learn_latency(benchmark::State& state, const rqs::obs::Observer& ob) {
  const rqs::obs::MetricsSnapshot snap = ob.snapshot();
  if (const auto* h = snap.histogram("consensus.learn.sim_time")) {
    state.counters["sim_p50_ticks"] = static_cast<double>(h->percentile(50.0));
    state.counters["sim_p99_ticks"] = static_cast<double>(h->percentile(99.0));
  }
}

void BM_ConsensusBestCase(benchmark::State& state) {
  rqs::obs::Observer ob;
  for (auto _ : state) {
    ConsensusCluster cluster(
        make_3t1_instantiation(static_cast<std::size_t>(state.range(0))),
        {.proposer_count = 1, .learner_count = 1});
    cluster.sim().set_observer(&ob);
    cluster.propose(0, 7);
    benchmark::DoNotOptimize(cluster.run_until_learned());
  }
  report_learn_latency(state, ob);
}
BENCHMARK(BM_ConsensusBestCase)->Arg(1)->Arg(2);

void BM_ConsensusWithByzantineAcceptor(benchmark::State& state) {
  rqs::obs::Observer ob;
  for (auto _ : state) {
    ConsensusCluster cluster(
        make_3t1_instantiation(static_cast<std::size_t>(state.range(0))),
        {.proposer_count = 1, .learner_count = 1,
         .byzantine_acceptors = ProcessSet{0}, .fake_value = -5});
    cluster.sim().set_observer(&ob);
    cluster.propose(0, 7);
    benchmark::DoNotOptimize(cluster.run_until_learned());
  }
  report_learn_latency(state, ob);
}
BENCHMARK(BM_ConsensusWithByzantineAcceptor)->Arg(1)->Arg(2);

}  // namespace
}  // namespace rqs::consensus

RQS_BENCH_MAIN(rqs::consensus::print_tables)
