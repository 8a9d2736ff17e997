// Experiment E1 (Section 1.2 / Figure 1): five crash-prone servers with
// t = 2. A greedy algorithm expediting single-round operations from any
// 3 servers violates atomicity (Fig. 1's ex1..ex4); requiring 4 servers
// (Fig. 2(b)) restores it while keeping single-round best-case latency.
#include "bench/bench_util.hpp"
#include "core/constructions.hpp"
#include "sim/network.hpp"
#include "storage/harness.hpp"

namespace rqs::storage {
namespace {

// Replays the Figure 1 schedule (as in tests/storage_fig1_test.cpp) and
// reports whether the two reads were atomic.
std::string replay_fig1(RefinedQuorumSystem sys) {
  StorageCluster cluster(std::move(sys), {.reader_count = 2});
  cluster.network().block(ProcessSet{kWriterId}, ProcessSet{0, 1, 3, 4});
  cluster.async_write(1);
  cluster.sim().run(10 * sim::kDefaultDelta);
  cluster.network().block(ProcessSet{kFirstReaderId}, ProcessSet{0, 1});
  cluster.network().block(ProcessSet{0, 1}, ProcessSet{kFirstReaderId});
  cluster.async_read(0);
  cluster.sim().run(cluster.sim().now() + 30 * sim::kDefaultDelta);
  if (!cluster.read_done(0)) return "rd1 blocked (no violation)";
  const Value rd1 = cluster.last_read_value(0);
  const RoundNumber rd1_rounds = cluster.reader(0).last_read_rounds();
  cluster.crash(2);
  cluster.crash(4);
  cluster.async_read(1);
  cluster.sim().run(cluster.sim().now() + 30 * sim::kDefaultDelta);
  const Value rd2 = cluster.read_done(1) ? cluster.last_read_value(1) : kBottom;
  const bool violated = (rd1 == 1) && (rd2 != 1);
  return "rd1=" + value_to_string(rd1) + " (" + std::to_string(rd1_rounds) +
         " rounds), rd2=" + value_to_string(rd2) +
         (violated ? "  => ATOMICITY VIOLATED" : "  => atomic");
}

void print_tables() {
  rqs::bench::print_header(
      "E1: Fig. 1 greedy 3-server fast ops vs Fig. 2(b) 4-server fast ops",
      "3-server fast quorums violate atomicity; 4-server fast quorums are "
      "safe and still 1-round");
  rqs::bench::print_row("greedy (3-subsets class 1) under Fig.1 schedule",
                        replay_fig1(make_fig1_broken5()));
  rqs::bench::print_row("repaired (4-subsets class 1) under same schedule",
                        replay_fig1(make_fig1_fast5()));

  {
    StorageCluster best(make_fig1_fast5(), {.reader_count = 1});
    const auto wr = best.blocking_write(1);
    const auto rd = best.blocking_read(0);
    rqs::bench::print_row("repaired system, 5 servers reachable",
                          "write=" + std::to_string(wr) +
                              ", read=" + std::to_string(rd.rounds) +
                              " (claim 1/1)");
  }
  {
    StorageCluster degraded(make_fig1_fast5(), {.reader_count = 1});
    degraded.crash(3);
    degraded.crash(4);
    const auto wr = degraded.blocking_write(1);
    const auto rd = degraded.blocking_read(0);
    rqs::bench::print_row("repaired system, 3 servers reachable",
                          "write=" + std::to_string(wr) +
                              ", read=" + std::to_string(rd.rounds) +
                              " (claim 2/2, the pw/w two-phase variant)");
  }
}

// Each iteration runs a fresh cluster with 10 write/read pairs: servers
// keep the full history of the variable (deliberately, Section 5), so a
// single long-lived cluster would make later operations ever slower.
void BM_Fig1FastPath(benchmark::State& state) {
  for (auto _ : state) {
    StorageCluster cluster(make_fig1_fast5(), {.reader_count = 1});
    for (Value v = 1; v <= 10; ++v) {
      cluster.blocking_write(v);
      benchmark::DoNotOptimize(cluster.blocking_read(0).value);
    }
  }
}
BENCHMARK(BM_Fig1FastPath)->Unit(benchmark::kMicrosecond);

void BM_Fig1DegradedPath(benchmark::State& state) {
  for (auto _ : state) {
    StorageCluster cluster(make_fig1_fast5(), {.reader_count = 1});
    cluster.crash(3);
    cluster.crash(4);
    for (Value v = 1; v <= 10; ++v) {
      cluster.blocking_write(v);
      benchmark::DoNotOptimize(cluster.blocking_read(0).value);
    }
  }
}
BENCHMARK(BM_Fig1DegradedPath)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rqs::storage

RQS_BENCH_MAIN(rqs::storage::print_tables)
