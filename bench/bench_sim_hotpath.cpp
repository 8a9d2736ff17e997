// E18: zero-allocation simulator hot path.
//
// Microbenchmarks for the discrete-event engine itself, isolated from
// protocol logic: the echo-mesh ns/message figure (a ring of processes
// forwarding one-hop messages — every delivery is one pool allocation
// cycle, one heap push/pop, one static dispatch), a broadcast fan-out
// (send_all amortization: one message block and one queue entry per
// broadcast, one step and one refcount bump per target), and a timer-churn
// micro (arm/cancel/fire with recycled slots; the old engine grew a byte
// per timer ever armed and allocated a std::function per arm).
//
// The experiment table checks the zero-allocation property directly, and
// the binary exits non-zero when a row fails: pool slab bytes reserved
// after warm-up stay flat while the run's message count grows 100x, timer
// slots track the in-flight peak, and 10,000 broadcasts leave slab bytes
// and fan-out slots where one broadcast left them.
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

/// Takes deliveries and handles none of them.
class SinkProc final : public ProcessOf<SinkProc, MessageList<>> {
 public:
  SinkProc(Simulation& sim, ProcessId id) : ProcessOf(sim, id) {}
};

/// Sinks with ids 0..n-1.
std::vector<std::unique_ptr<SinkProc>> make_sinks(Simulation& sim, ProcessId n) {
  std::vector<std::unique_ptr<SinkProc>> sinks;
  sinks.reserve(n);
  for (ProcessId id = 0; id < n; ++id) {
    sinks.push_back(std::make_unique<SinkProc>(sim, id));
  }
  return sinks;
}

class BroadcasterProc final : public ProcessOf<BroadcasterProc, MessageList<>> {
 public:
  BroadcasterProc(Simulation& sim, ProcessId id, ProcessSet targets)
      : ProcessOf(sim, id), targets_(targets) {}
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
  // (refcount bumps, no copies) and the broadcast is one queue entry, a
  // fan-out that step() delivers one target at a time.
  const auto fanout = static_cast<ProcessId>(state.range(0));
  Simulation sim;
  const auto sinks = make_sinks(sim, fanout);
  BroadcasterProc src(sim, fanout, ProcessSet::universe(fanout));
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

/// On each fire re-arms its live timer and arms + cancels a doomed one.
class TimerChurnProc final : public ProcessOf<TimerChurnProc, MessageList<>> {
 public:
  TimerChurnProc(Simulation& sim, ProcessId id) : ProcessOf(sim, id) {}
  void kick() { live_.arm(1); }
  std::uint64_t fired{0};

 private:
  void on_live() {
    ++fired;
    live_.arm(2);
    doomed_.arm(3);
    doomed_.cancel();
  }

  Timer live_{*this, [this] { on_live(); }};
  Timer doomed_{*this, [] {}};
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
    const std::size_t after = sim.msg_pool().reserved_bytes();
    bench::check_row(
        "pool slab bytes, warm-up vs +" +
            std::to_string(sim.messages_delivered() - before) + " messages",
        std::to_string(warm) + " -> " + std::to_string(after) +
            (after == warm ? " (flat: steady state allocates nothing)" : " (GREW)"),
        after == warm);
  }

  // Timer bookkeeping bound: slots track the in-flight peak, not the
  // total ever armed.
  {
    Simulation sim;
    TimerChurnProc p(sim, 0);
    p.kick();
    sim.run(200000);
    // Each fire arms a live timer due in 2 and a cancelled one due in 3, so
    // at most 3 are in flight.
    bench::check_row(
        "timer slots after " + std::to_string(p.fired) + " fires (+1 cancel each)",
        std::to_string(sim.timer_slot_capacity()) +
            " slots (in-flight peak; was one byte per timer ever armed)",
        sim.timer_slot_capacity() <= 3);
  }

  // Fan-out bookkeeping bound: a broadcast is one queue entry whose slot
  // is recycled once its last target is delivered.
  {
    constexpr ProcessId kSinks = 63;
    constexpr int kBroadcasts = 10000;
    Simulation sim;
    const auto sinks = make_sinks(sim, kSinks);
    BroadcasterProc src(sim, kSinks, ProcessSet::universe(kSinks));
    src.broadcast();
    sim.run();
    const std::size_t warm_bytes = sim.msg_pool().reserved_bytes();
    const std::size_t warm_slots = sim.fanout_slot_capacity();
    for (int i = 0; i < kBroadcasts; ++i) {
      src.broadcast();
      sim.run();
    }
    const std::size_t bytes = sim.msg_pool().reserved_bytes();
    const std::size_t slots = sim.fanout_slot_capacity();
    const bool flat = bytes == warm_bytes && slots == warm_slots;
    const auto state = [](std::size_t b, std::size_t n) {
      return std::to_string(b) + " B, " + std::to_string(n) + (n == 1 ? " slot" : " slots");
    };
    bench::check_row(
        "slab bytes + fan-out slots, " + std::to_string(kBroadcasts) +
            " broadcasts to " + std::to_string(kSinks) + " sinks",
        state(warm_bytes, warm_slots) + " -> " + state(bytes, slots) +
            (flat ? " (flat)" : " (GREW)"),
        flat);
  }
}

}  // namespace
}  // namespace rqs::sim

RQS_BENCH_MAIN(rqs::sim::print_tables)
