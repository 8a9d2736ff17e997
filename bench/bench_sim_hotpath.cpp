// E18: zero-allocation simulator hot path.
//
// Microbenchmarks for the discrete-event engine itself, isolated from
// protocol logic: the echo-mesh ns/message figure (a ring of processes
// forwarding one-hop messages — every delivery is one pool allocation
// cycle, one heap push/pop, one static dispatch), a broadcast fan-out
// (send_all amortization: one message block, N refcount bumps and queue
// entries), and a timer-churn micro (arm/cancel/fire with recycled slots;
// the old engine grew a byte per timer ever armed and allocated a
// std::function per arm).
//
// The experiment table shows the zero-allocation property directly: pool
// slab bytes reserved after warm-up stay flat while the run's message
// count grows 100x, and timer slots track the in-flight peak.
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/echo_mesh.hpp"
#include "sim/network.hpp"
#include "sim/process.hpp"

namespace rqs::sim {
namespace {

using bench::HopMsg;
using bench::make_ring;
using bench::RingProc;

/// Ring driver shared by the table and the micro.
std::uint64_t run_echo_mesh(Simulation& sim, std::vector<std::unique_ptr<RingProc>>& procs,
                            int hops) {
  for (auto& p : procs) p->seed(hops);
  sim.run();
  return sim.messages_delivered();
}

void BM_EchoMeshMessage(benchmark::State& state) {
  // ns/message including simulation construction (fresh engine per
  // iteration, like a scenario run would see).
  constexpr ProcessId kProcs = 40;
  constexpr int kHops = 200;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    Simulation sim;
    auto procs = make_ring(sim, kProcs);
    delivered += run_echo_mesh(sim, procs, kHops);
    benchmark::DoNotOptimize(sim.messages_delivered());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_EchoMeshMessage);

void BM_EchoMeshSteadyState(benchmark::State& state) {
  // ns/message in the steady state: one warm engine, the pool and heap
  // storage fully recycled across iterations — the zero-allocation path.
  constexpr ProcessId kProcs = 40;
  constexpr int kHops = 200;
  Simulation sim;
  auto procs = make_ring(sim, kProcs);
  std::uint64_t last = 0;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    const std::uint64_t total = run_echo_mesh(sim, procs, kHops);
    delivered += total - last;
    last = total;
  }
  state.counters["pool_bytes"] =
      static_cast<double>(sim.msg_pool().reserved_bytes());
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_EchoMeshSteadyState);

/// Counts deliveries; replies nothing.
class SinkProc final : public Process {
 public:
  SinkProc(Simulation& sim, ProcessId id) : Process(sim, id) {}
  void on_message(ProcessId, const Message&) override {}
};

class BroadcasterProc final : public Process {
 public:
  BroadcasterProc(Simulation& sim, ProcessId id, ProcessSet targets)
      : Process(sim, id), targets_(targets) {}
  void on_message(ProcessId, const Message&) override {}
  void broadcast() {
    auto msg = make_msg<HopMsg>();
    msg->hops_left = 0;
    send_all(targets_, std::move(msg));
  }

 private:
  ProcessSet targets_;
};

void BM_BroadcastFanout(benchmark::State& state) {
  // One send_all to `fanout` sinks per round: the message block is shared
  // (refcount bumps, no copies), each target costs one queue entry.
  const auto fanout = static_cast<ProcessId>(state.range(0));
  Simulation sim;
  ProcessSet targets;
  std::vector<std::unique_ptr<SinkProc>> sinks;
  sinks.reserve(fanout);
  for (ProcessId id = 0; id < fanout; ++id) {
    sinks.push_back(std::make_unique<SinkProc>(sim, id));
    targets.insert(id);
  }
  BroadcasterProc src(sim, fanout, targets);
  std::uint64_t delivered = 0;
  std::uint64_t last = 0;
  for (auto _ : state) {
    src.broadcast();
    sim.run();
    const std::uint64_t total = sim.messages_delivered();
    delivered += total - last;
    last = total;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_BroadcastFanout)->Arg(4)->Arg(16)->Arg(63);

/// Arms `live` timers, cancels every other one, re-arms on fire.
class TimerChurnProc final : public Process {
 public:
  TimerChurnProc(Simulation& sim, ProcessId id) : Process(sim, id) {}
  void on_message(ProcessId, const Message&) override {}
  void on_timer(TimerId) override {
    ++fired;
    (void)set_timer(2);
    const TimerId doomed = set_timer(3);
    cancel_timer(doomed);
  }
  void kick() { (void)set_timer(1); }
  std::uint64_t fired{0};
};

void BM_TimerChurn(benchmark::State& state) {
  // Each fire re-arms one live timer and arm+cancels a second: two slot
  // recycles per event, zero allocations after warm-up, and the slot
  // table stays at the in-flight peak.
  Simulation sim;
  TimerChurnProc p(sim, 0);
  p.kick();
  std::uint64_t fired = 0;
  std::uint64_t last = 0;
  for (auto _ : state) {
    sim.run(sim.now() + 2000);
    fired += p.fired - last;
    last = p.fired;
  }
  state.counters["timer_slots"] =
      static_cast<double>(sim.timer_slot_capacity());
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_TimerChurn);

void print_tables() {
  bench::print_header(
      "E18: zero-allocation simulator hot path",
      "typed 4-ary event heap, static message dispatch, pooled messages "
      "(Section 3.1 model: computation free, message delays dominate)");

  // Zero-allocation evidence: slab bytes reserved after warm-up stay flat
  // while the delivered-message volume grows 100x.
  {
    Simulation sim;
    auto procs = make_ring(sim, 40);
    run_echo_mesh(sim, procs, 2);
    const std::size_t warm = sim.msg_pool().reserved_bytes();
    const std::uint64_t before = sim.messages_delivered();
    run_echo_mesh(sim, procs, 200);
    bench::print_row(
        "pool slab bytes, warm-up vs +" +
            std::to_string(sim.messages_delivered() - before) + " messages",
        std::to_string(warm) + " -> " +
            std::to_string(sim.msg_pool().reserved_bytes()) +
            (sim.msg_pool().reserved_bytes() == warm ? " (flat: steady state allocates nothing)"
                                                     : " (GREW)"));
  }

  // Timer bookkeeping bound: slots track the in-flight peak, not the
  // total ever armed.
  {
    Simulation sim;
    TimerChurnProc p(sim, 0);
    p.kick();
    sim.run(200000);
    bench::print_row(
        "timer slots after " + std::to_string(p.fired) + " fires (+1 cancel each)",
        std::to_string(sim.timer_slot_capacity()) +
            " slots (in-flight peak; was one byte per timer ever armed)");
  }
}

}  // namespace
}  // namespace rqs::sim

RQS_BENCH_MAIN(rqs::sim::print_tables)
