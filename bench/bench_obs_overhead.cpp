// E21: observability overhead on the simulator hot path.
//
// The Simulation holds an Observer* that is null by default; every
// dispatch site pays exactly one predictable branch when observation is
// off. This bench pins that contract on the E18 echo mesh (a ring of
// processes forwarding one-hop messages — the densest per-message path
// the engine has): ns/message with no observer, with a metrics-only
// observer, and with full tracing into a ring large enough to never
// drop. The null-observer figure must stay within noise of the PR-5
// bench_sim_hotpath steady-state baseline (acceptance: <= 2%).
//
// The experiment table shows the passivity contract directly: the same
// golden scenario run observer-off, metrics-only and fully-traced yields
// byte-identical trace digests.
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/echo_mesh.hpp"
#include "obs/observer.hpp"
#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "sim/process.hpp"

namespace rqs::sim {
namespace {

constexpr ProcessId kProcs = 40;
constexpr int kHops = 200;

/// Steady-state echo mesh with `ob` attached (null = observation off);
/// reports ns/message via items processed, like BM_EchoMeshSteadyState.
void run_mesh_bench(benchmark::State& state, obs::Observer* ob) {
  Simulation sim;
  sim.set_observer(ob);
  auto procs = bench::make_ring(sim, kProcs);
  std::uint64_t last = 0;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    for (auto& p : procs) p->seed(kHops);
    sim.run();
    const std::uint64_t total = sim.messages_delivered();
    delivered += total - last;
    last = total;
  }
  if (ob != nullptr) {
    state.counters["obs_sends"] = static_cast<double>(ob->sends());
    if (const obs::TraceRing* ring = ob->ring()) {
      state.counters["ring_recorded"] = static_cast<double>(ring->recorded());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}

void BM_EchoMeshObserverNull(benchmark::State& state) {
  run_mesh_bench(state, nullptr);
}
BENCHMARK(BM_EchoMeshObserverNull);

void BM_EchoMeshObserverMetrics(benchmark::State& state) {
  obs::Observer ob;
  run_mesh_bench(state, &ob);
}
BENCHMARK(BM_EchoMeshObserverMetrics);

void BM_EchoMeshObserverTracing(benchmark::State& state) {
  // 2^20-slot ring: one ring cycle records ~16k events, so the masked
  // store is exercised without ever wrapping mid-measurement mattering.
  obs::Observer ob(std::size_t{1} << 20);
  run_mesh_bench(state, &ob);
}
BENCHMARK(BM_EchoMeshObserverTracing);

void print_tables() {
  bench::print_header(
      "E21: observability overhead & passivity",
      "observer off = one predictable branch per dispatch; attaching one "
      "never changes an execution (byte-identical golden digests)");

  // Passivity: the same golden seed, run observer-off / metrics-only /
  // fully-traced, produces the same trace digest bit for bit.
  const scenario::ScenarioGenerator generator;
  const auto spec = generator.generate(42);

  const auto run_with = [&](scenario::ScenarioRunner::Options opts) {
    return scenario::ScenarioRunner(opts).run(spec);
  };
  const auto off = run_with({});
  scenario::ScenarioRunner::Options metrics_opts;
  metrics_opts.collect_metrics = true;
  const auto metrics = run_with(metrics_opts);
  scenario::ScenarioRunner::Options trace_opts;
  trace_opts.trace_capacity = std::size_t{1} << 16;
  const auto traced = run_with(trace_opts);

  const bool identical = off.trace_digest == metrics.trace_digest &&
                         off.trace_digest == traced.trace_digest;
  bench::print_row("golden seed 42 digest off/metrics/traced",
                   std::to_string(off.trace_digest) + " / " +
                       std::to_string(metrics.trace_digest) + " / " +
                       std::to_string(traced.trace_digest) +
                       (identical ? "  (identical)" : "  (DIVERGED)"));
  bench::print_row("traced run events digest",
                   std::to_string(traced.events_digest) + " over " +
                       std::to_string(traced.metrics.counter("sim.sends")) +
                       " sends / " +
                       std::to_string(traced.metrics.counter("sim.delivers")) +
                       " delivers");
}

}  // namespace
}  // namespace rqs::sim

RQS_BENCH_MAIN(rqs::sim::print_tables)
