// Experiment E13 (Section 5 comparison): round counts of the RQS storage
// against the ABD baseline and the masking/disseminating ablations, across
// best-case and degraded conditions. The shape to reproduce: RQS wins in
// the best case (1-round reads AND writes, which ABD's lower bound forbids
// at optimal resilience), degrades gracefully to ABD-like and then
// 3-round behaviour, and never exceeds 3 rounds.
#include "bench/bench_util.hpp"
#include "core/constructions.hpp"
#include "storage/abd.hpp"
#include "storage/harness.hpp"

namespace rqs::storage {
namespace {

void print_tables() {
  rqs::bench::print_header(
      "E13: RQS storage vs baselines (rounds per op, synchronous & "
      "uncontended)",
      "RQS: 1/1 best case; ABD: always 1 write / 2 read; ablations: 2/2, 3/3");

  {
    StorageCluster rqs_best(make_fig1_fast5(), {.reader_count = 1});
    const auto wr = rqs_best.blocking_write(1);
    const auto rd = rqs_best.blocking_read(0);
    rqs::bench::print_row("RQS fig1-fast5 (5 servers, all up)",
                          "write=" + std::to_string(wr) +
                              ", read=" + std::to_string(rd.rounds));
  }
  {
    StorageCluster rqs_degraded(make_fig1_fast5(), {.reader_count = 1});
    rqs_degraded.crash(3);
    rqs_degraded.crash(4);
    const auto wr = rqs_degraded.blocking_write(1);
    const auto rd = rqs_degraded.blocking_read(0);
    rqs::bench::print_row("RQS fig1-fast5 (2 of 5 crashed)",
                          "write=" + std::to_string(wr) +
                              ", read=" + std::to_string(rd.rounds));
  }
  rqs::bench::print_row("ABD majority (5 servers, any condition)",
                        "write=1, read=2 (by construction)");
  {
    StorageCluster masking(make_masking(5, 1, 1), {.reader_count = 1});
    const auto wr = masking.blocking_write(1);
    const auto rd = masking.blocking_read(0);
    rqs::bench::print_row("ablation: masking system (QC1 empty)",
                          "write=" + std::to_string(wr) +
                              ", read=" + std::to_string(rd.rounds));
  }
  {
    StorageCluster diss(make_disseminating(5, 1, 1), {.reader_count = 1});
    const auto wr = diss.blocking_write(1);
    const auto rd = diss.blocking_read(0);
    rqs::bench::print_row("ablation: disseminating system (QC1=QC2 empty)",
                          "write=" + std::to_string(wr) +
                              ", read=" + std::to_string(rd.rounds));
  }
}

void BM_AbdOpPair(benchmark::State& state) {
  sim::Simulation sim;
  const ProcessSet servers = ProcessSet::universe(5);
  std::vector<std::unique_ptr<AbdServer>> nodes;
  for (ProcessId id = 0; id < 5; ++id) {
    nodes.push_back(std::make_unique<AbdServer>(sim, id));
  }
  AbdWriter writer(sim, 40, servers);
  AbdReader reader(sim, 41, servers);
  Value v = 0;
  for (auto _ : state) {
    bool wdone = false;
    writer.write(++v, [&] { wdone = true; });  // ABD state is O(1)
    if (!StorageCluster::drive(sim, [&] { return wdone; })) {
      state.SkipWithError("an ABD write did not complete");
      break;
    }
    bool rdone = false;
    Value out = kBottom;
    reader.read([&](Value r) {
      rdone = true;
      out = r;
    });
    if (!StorageCluster::drive(sim, [&] { return rdone; })) {
      state.SkipWithError("an ABD read did not complete");
      break;
    }
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_AbdOpPair);

void BM_MaskingOpPair(benchmark::State& state) {
  for (auto _ : state) {
    StorageCluster cluster(make_masking(5, 1, 1), {.reader_count = 1});
    for (Value v = 1; v <= 10; ++v) {
      cluster.blocking_write(v);
      benchmark::DoNotOptimize(cluster.blocking_read(0).value);
    }
  }
}
BENCHMARK(BM_MaskingOpPair)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rqs::storage

RQS_BENCH_MAIN(rqs::storage::print_tables)
