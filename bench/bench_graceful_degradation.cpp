// Experiment E11 (Section 6): graceful degradation — as better quorum
// classes become unavailable (through crashes), latency falls back along
// the ladder l1 -> l2 -> l3 and never beyond, for storage (rounds) and
// consensus (message delays) simultaneously.
#include "bench/bench_util.hpp"
#include "consensus/harness.hpp"
#include "core/constructions.hpp"
#include "storage/harness.hpp"

namespace rqs {
namespace {

void degradation_row(std::size_t t, std::size_t crashes) {
  const std::size_t n = 3 * t + 1;
  // Storage.
  storage::StorageCluster sc(make_3t1_instantiation(t), {.reader_count = 1});
  for (std::size_t i = 0; i < crashes; ++i) sc.crash(static_cast<ProcessId>(i));
  const RoundNumber wr = sc.blocking_write(1);
  const auto rd = sc.blocking_read(0);
  // Consensus.
  consensus::ConsensusCluster cc(make_3t1_instantiation(t),
                                 {.proposer_count = 1, .learner_count = 1});
  for (std::size_t i = 0; i < crashes; ++i) {
    cc.sim().crash(static_cast<ProcessId>(i));
  }
  cc.propose(0, 7);
  const bool learned = cc.run_until_learned();
  const auto delays = cc.learn_delays(0);
  rqs::bench::print_row(
      "n=" + std::to_string(n) + " t=" + std::to_string(t) + ", " +
          std::to_string(crashes) + " crashed",
      "storage write/read=" + std::to_string(wr) + "/" +
          std::to_string(rd.rounds) + " rounds; consensus=" +
          (learned && delays ? std::to_string(*delays) + " delays"
                             : "no decision"));
}

void print_tables() {
  rqs::bench::print_header(
      "E11: graceful degradation (3t+1 instantiation, q=0, r=t, k=t)",
      "0 crashes: 1 round / 2 delays; 1..t crashes: <=2 rounds / 3 delays; "
      "beyond t: no liveness guarantee");
  for (std::size_t t = 1; t <= 3; ++t) {
    for (std::size_t crashes = 0; crashes <= t; ++crashes) {
      degradation_row(t, crashes);
    }
  }

  rqs::bench::print_header(
      "E11b: degradation under contention (storage)",
      "contended reads may need extra rounds but never violate atomicity");
  storage::StorageCluster sc(make_fig1_fast5(), {.reader_count = 1});
  sc.blocking_write(1);
  sc.network().fixed_delay(ProcessSet{storage::kWriterId},
                           ProcessSet::universe(5),
                           5 * sim::kDefaultDelta);
  sc.async_write(2);
  const auto rd = sc.blocking_read(0);
  const bool wrote =
      storage::StorageCluster::drive(sc.sim(), [&] { return sc.write_done(); });
  const bool atomic = sc.checker().check().atomic;
  rqs::bench::check_row(
      "read concurrent with slow write",
      "read=" + std::to_string(rd.rounds) + " rounds, atomic=" +
          (atomic ? "yes" : "NO") + (wrote ? "" : ", slow write unfinished"),
      wrote && atomic);
}

void BM_DegradationSweep(benchmark::State& state) {
  const std::size_t t = 2;
  const std::size_t crashes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    storage::StorageCluster sc(make_3t1_instantiation(t), {.reader_count = 1});
    for (std::size_t i = 0; i < crashes; ++i) {
      sc.crash(static_cast<ProcessId>(i));
    }
    sc.blocking_write(1);
    benchmark::DoNotOptimize(sc.blocking_read(0).rounds);
  }
}
BENCHMARK(BM_DegradationSweep)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace rqs

RQS_BENCH_MAIN(rqs::print_tables)
