// Experiment E10 (Sections 3.3/4.3): optimal resilience — liveness holds
// exactly when some quorum contains only correct processes. Sweep every
// crash pattern of the small systems and count the live ones; compare to
// the combinatorial prediction.
#include "bench/bench_util.hpp"
#include "consensus/harness.hpp"
#include "core/constructions.hpp"
#include "storage/harness.hpp"

namespace rqs {
namespace {

struct SweepResult {
  std::size_t patterns{0};
  std::size_t predicted_live{0};
  std::size_t storage_live{0};
  std::size_t consensus_live{0};
};

SweepResult sweep(const RefinedQuorumSystem& sys, std::size_t max_crashes) {
  SweepResult out;
  const std::size_t n = sys.universe_size();
  const std::uint64_t full = ProcessSet::universe(n).mask();
  for (std::uint64_t mask = 0; mask <= full; ++mask) {
    const ProcessSet crashed = ProcessSet::from_mask(mask);
    if (crashed.size() > max_crashes) continue;
    ++out.patterns;
    const bool predicted =
        sys.best_available(crashed.complement(n)).has_value();
    if (predicted) ++out.predicted_live;

    // Storage liveness: write + read complete within a deadline.
    {
      storage::StorageCluster sc(sys, {.reader_count = 1});
      for (const ProcessId id : crashed) sc.crash(id);
      sc.async_write(1);
      sc.sim().run(sc.sim().now() + 50 * sim::kDefaultDelta);
      bool live = sc.write_done();
      if (live) {
        sc.async_read(0);
        sc.sim().run(sc.sim().now() + 50 * sim::kDefaultDelta);
        live = sc.read_done(0);
      }
      if (live) ++out.storage_live;
    }
    // Consensus liveness: learner learns within a deadline.
    {
      consensus::ConsensusCluster cc(sys, {.proposer_count = 1, .learner_count = 1});
      for (const ProcessId id : crashed) cc.sim().crash(id);
      cc.propose(0, 7);
      if (cc.run_until_learned(100)) ++out.consensus_live;
    }
  }
  return out;
}

void print_tables() {
  rqs::bench::print_header(
      "E10: resilience sweep — liveness iff a fully-correct quorum exists",
      "simulated liveness must equal the combinatorial prediction, per "
      "crash pattern");
  struct Row {
    std::string label;
    RefinedQuorumSystem sys;
    std::size_t max_crashes;
  };
  std::vector<Row> rows;
  rows.push_back({"fig1-fast5 (n=5, t=2)", make_fig1_fast5(), 3});
  rows.push_back({"3t+1 (t=1, n=4)", make_3t1_instantiation(1), 2});
  rows.push_back({"example7 (general adversary)", make_example7(), 3});
  for (auto& row : rows) {
    const SweepResult r = sweep(row.sys, row.max_crashes);
    rqs::bench::print_row(
        row.label,
        "patterns=" + std::to_string(r.patterns) + " predicted-live=" +
            std::to_string(r.predicted_live) + " storage-live=" +
            std::to_string(r.storage_live) + " consensus-live=" +
            std::to_string(r.consensus_live) +
            ((r.predicted_live == r.storage_live &&
              r.predicted_live == r.consensus_live)
                 ? "  OK"
                 : "  MISMATCH"));
  }
}

void BM_ResilienceSweepStorage(benchmark::State& state) {
  const RefinedQuorumSystem sys = make_3t1_instantiation(1);
  for (auto _ : state) {
    std::size_t live = 0;
    for (std::uint64_t mask = 0; mask < 16; ++mask) {
      const ProcessSet crashed = ProcessSet::from_mask(mask);
      if (crashed.size() > 1) continue;
      storage::StorageCluster sc(sys, {.reader_count = 0});
      for (const ProcessId id : crashed) sc.crash(id);
      sc.async_write(1);
      sc.sim().run(sc.sim().now() + 50 * sim::kDefaultDelta);
      if (sc.write_done()) ++live;
    }
    benchmark::DoNotOptimize(live);
  }
}
BENCHMARK(BM_ResilienceSweepStorage);

}  // namespace
}  // namespace rqs

RQS_BENCH_MAIN(rqs::print_tables)
