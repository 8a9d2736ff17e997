// E16: scenario swarm — randomized schedule exploration at scale.
//
// Experiment table: a 1000-scenario seeded swarm over the valid systems
// (zero invariant violations expected — the paper's safety and conditional
// liveness hold on *every* sampled execution), the availability predicted
// by analysis.cpp for context, and the planted-bug hunt on the Fig. 1
// greedy system (E1), which must be re-detected from generated scenarios
// with a small shrunk reproducer. The two claim rows are checks, and the
// binary exits non-zero when one fails.
//
// Microbenchmarks: swarm throughput (scenarios/sec) versus worker thread
// count (1/2/4/8) and the cost of shrinking a planted failure. The swarm
// shares no mutable state across workers, so throughput scales with
// physical cores; on a single-core container the curve is flat.
// perfbench's swarm workload times single scenarios per protocol.
#include "bench/bench_util.hpp"

#include <algorithm>

#include "core/analysis.hpp"
#include "scenario/swarm.hpp"

namespace {

using namespace rqs;
using namespace rqs::scenario;

SwarmOptions valid_mix(std::size_t scenarios, std::size_t threads) {
  SwarmOptions opts;
  opts.scenarios = scenarios;
  opts.threads = threads;
  opts.base_seed = 1;
  return opts;
}

void print_tables() {
  bench::print_header(
      "E16: scenario swarm — declarative fault schedules at scale",
      "safety on every execution; termination iff a correct quorum stays "
      "reachable (Theorems 2/5)");

  // 1000 distinct seeded scenarios over valid systems: zero violations.
  const SwarmReport valid = run_swarm(valid_mix(1000, 4));
  bench::check_row(
      "valid systems, 1000 seeded scenarios",
      std::to_string(valid.violating) + " violations (expect 0), ops " +
          std::to_string(valid.ops_completed) + "/" +
          std::to_string(valid.ops_started) + ", " +
          std::to_string(valid.liveness_checked) + " liveness claims",
      valid.violating == 0);

  // Context: the availability analysis.cpp predicts for the most common
  // family at a server failure probability matching the generator's crash
  // pressure (up to 2 crashes over 5 servers).
  const RefinedQuorumSystem fast5 = materialize(SystemFamily::kFast5);
  bench::print_row(
      "fast5 availability at p=0.2 (analysis.cpp)",
      std::to_string(availability(fast5, 0.2)) +
          " P[some quorum fully correct]");

  // Planted-bug hunt: the greedy Fig. 1 system must be re-detected from
  // generated scenarios and shrink to a tiny reproducer.
  SwarmOptions hunt = valid_mix(1000, 4);
  hunt.generator = ScenarioGenerator::fig1_hunt();
  const SwarmReport broken = run_swarm(hunt);
  std::size_t smallest = 0;
  if (!broken.failures.empty()) {
    smallest = std::min_element(broken.failures.begin(), broken.failures.end(),
                                [](const SwarmFailure& a, const SwarmFailure& b) {
                                  return a.shrunk_entries < b.shrunk_entries;
                                })
                   ->shrunk_entries;
  }
  bench::check_row(
      "fig1-broken5 hunt, 1000 seeded scenarios (E1)",
      std::to_string(broken.violating) + " violations detected (expect > 0), "
      "smallest reproducer " + std::to_string(smallest) + " entries (expect <= 3)",
      !broken.failures.empty() && smallest <= 3);
  if (!broken.failures.empty()) {
    bench::print_row("  first reproducer seed",
                     std::to_string(broken.failures.front().seed));
  }
}

void BM_SwarmThroughput(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::size_t scenarios = 0;
  std::size_t violations = 0;
  for (auto _ : state) {
    const SwarmReport report = run_swarm(valid_mix(200, threads));
    scenarios += report.scenarios_run;
    violations += report.violating;
    benchmark::DoNotOptimize(report.digest);
  }
  state.counters["scenarios_per_sec"] = benchmark::Counter(
      static_cast<double>(scenarios), benchmark::Counter::kIsRate);
  state.counters["violations"] = static_cast<double>(violations);
}
BENCHMARK(BM_SwarmThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

void BM_ShrinkPlantedBug(benchmark::State& state) {
  // Shrinking cost on the first fig1 failure the generator produces.
  SwarmOptions hunt = valid_mix(200, 2);
  hunt.generator = ScenarioGenerator::fig1_hunt();
  hunt.shrink_failures = false;
  const SwarmReport report = run_swarm(hunt);
  if (report.failures.empty()) {
    state.SkipWithError("no failure found in 200 hunt seeds");
    return;
  }
  const ScenarioGenerator gen(hunt.generator);
  const ScenarioRunner runner;
  const ScenarioSpec spec = gen.generate(report.failures.front().seed);
  std::size_t entries = 0;
  for (auto _ : state) {
    const ShrinkResult s = shrink(spec, runner);
    entries = s.entries_after;
    benchmark::DoNotOptimize(s.runs);
  }
  state.counters["reproducer_entries"] = static_cast<double>(entries);
}
BENCHMARK(BM_ShrinkPlantedBug)->Unit(benchmark::kMicrosecond);

}  // namespace

RQS_BENCH_MAIN(print_tables)
