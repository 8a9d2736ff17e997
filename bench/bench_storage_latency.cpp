// Experiment E5 (Section 3.2, Theorem 9): the storage algorithm is
// (m, QC_m)-fast — synchronous uncontended writes and reads complete in
// 1 / 2 / 3 rounds when a class 1 / 2 / 3 quorum of correct servers is
// available. The table regenerates the latency ladder on three systems;
// the microbenchmarks measure simulated operations per second.
#include "bench/bench_util.hpp"
#include "core/constructions.hpp"
#include "obs/observer.hpp"
#include "storage/harness.hpp"

namespace rqs::storage {
namespace {

struct LadderRow {
  std::string label;
  RefinedQuorumSystem system;
  ProcessSet crashed;  // crash pattern selecting the available class
  std::string claim;
};

void run_ladder_row(LadderRow row) {
  StorageCluster cluster(std::move(row.system), {.reader_count = 1});
  for (const ProcessId id : row.crashed) cluster.crash(id);
  const RoundNumber wr = cluster.blocking_write(1);
  const auto rd = cluster.blocking_read(0);
  rqs::bench::print_row(
      row.label, "write=" + std::to_string(wr) + " rounds, read=" +
                     std::to_string(rd.rounds) + " rounds  (claim: " +
                     row.claim + ")");
}

void print_tables() {
  rqs::bench::print_header(
      "E5: storage best-case latency ladder",
      "(m, QC_m)-fast: 1 round w/ class 1, 2 w/ class 2, 3 w/ class 3");

  run_ladder_row({"fig1-fast5 (n=5,t=2,crash), all up [class 1]",
                  make_fig1_fast5(), {}, "1/1"});
  run_ladder_row({"fig1-fast5, 2 crashed [class 2]",
                  make_fig1_fast5(), ProcessSet{3, 4}, "2/<=2"});
  run_ladder_row({"3t+1 (t=1,Byz), all up [class 1]",
                  make_3t1_instantiation(1), {}, "1/1"});
  run_ladder_row({"3t+1 (t=1), 1 crashed [class 2]",
                  make_3t1_instantiation(1), ProcessSet{0}, "2/<=2"});
  run_ladder_row({"3t+1 (t=2, n=7), all up [class 1]",
                  make_3t1_instantiation(2), {}, "1/1"});
  run_ladder_row({"3t+1 (t=2, n=7), 2 crashed [class 2]",
                  make_3t1_instantiation(2), ProcessSet{0, 1}, "2/<=2"});
  run_ladder_row({"example7 (general adversary), all up [class 1]",
                  make_example7(), {}, "1/1"});
  run_ladder_row({"example7, s5 crashed [class 2]",
                  make_example7(), ProcessSet{4}, "2/<=2"});
  run_ladder_row({"masking (n=5,k=1) [class 2 only]",
                  make_masking(5, 1, 1), {}, "2/2"});
  run_ladder_row({"disseminating (n=5,k=1) [class 3 only]",
                  make_disseminating(5, 1, 1), {}, "3/3"});
}

// Sim-time percentiles, in sim ticks (Delta = 1000), of the operation
// latency histograms the protocol instrumentation records (reader/writer
// measure start-to-finish per op).
void report_op_latency(benchmark::State& state, const rqs::obs::Observer& ob) {
  const rqs::obs::MetricsSnapshot snap = ob.snapshot();
  if (const auto* h = snap.histogram("storage.write.sim_time")) {
    state.counters["write_sim_p50_ticks"] = static_cast<double>(h->percentile(50.0));
    state.counters["write_sim_p99_ticks"] = static_cast<double>(h->percentile(99.0));
  }
  if (const auto* h = snap.histogram("storage.read.sim_time")) {
    state.counters["read_sim_p50_ticks"] = static_cast<double>(h->percentile(50.0));
    state.counters["read_sim_p99_ticks"] = static_cast<double>(h->percentile(99.0));
  }
}

// Fresh cluster per iteration (10 op pairs each), so every iteration runs
// the same execution from the initial state. (Servers compact their
// histories below the latest complete pair, so a shared cluster would not
// slow down; it would only start each iteration from a different state.)
void BM_WriteReadBestCase(benchmark::State& state) {
  rqs::obs::Observer ob;
  RoundNumber write_rounds = 0;
  RoundNumber read_rounds = 0;
  for (auto _ : state) {
    StorageCluster cluster(
        make_3t1_instantiation(static_cast<std::size_t>(state.range(0))),
        {.reader_count = 1});
    cluster.sim().set_observer(&ob);
    for (Value v = 1; v <= 10; ++v) {
      cluster.blocking_write(v);
      benchmark::DoNotOptimize(cluster.blocking_read(0).value);
    }
    write_rounds = cluster.writer().last_write_rounds();
    read_rounds = cluster.reader(0).last_read_rounds();
  }
  state.counters["write_rounds"] = static_cast<double>(write_rounds);
  state.counters["read_rounds"] = static_cast<double>(read_rounds);
  report_op_latency(state, ob);
}
BENCHMARK(BM_WriteReadBestCase)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMicrosecond);

void BM_WriteReadDegraded(benchmark::State& state) {
  rqs::obs::Observer ob;
  RoundNumber write_rounds = 0;
  for (auto _ : state) {
    StorageCluster cluster(
        make_3t1_instantiation(static_cast<std::size_t>(state.range(0))),
        {.reader_count = 1});
    cluster.sim().set_observer(&ob);
    for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0)); ++i) {
      cluster.crash(static_cast<ProcessId>(i));
    }
    for (Value v = 1; v <= 10; ++v) {
      cluster.blocking_write(v);
      benchmark::DoNotOptimize(cluster.blocking_read(0).value);
    }
    write_rounds = cluster.writer().last_write_rounds();
  }
  state.counters["write_rounds"] = static_cast<double>(write_rounds);
  report_op_latency(state, ob);
}
BENCHMARK(BM_WriteReadDegraded)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rqs::storage

RQS_BENCH_MAIN(rqs::storage::print_tables)
