// The E18 echo mesh, shared by the simulator hot-path and observer-overhead
// benches: a ring of processes, each forwarding a one-hop message to the
// next member until its hop budget dies out. Every delivery is one pool
// allocation cycle, one heap push/pop and one static dispatch, the densest
// per-message path the engine has.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "sim/process.hpp"

namespace rqs::bench {

struct HopMsg final : sim::TypedMessage<HopMsg, sim::MessageList<HopMsg>, 64> {
  int hops_left{0};
  [[nodiscard]] std::string_view tag() const override { return "HOP"; }
};

/// Forwards each received message to the next ring member until the hop
/// budget dies out.
class RingProc final
    : public sim::ProcessOf<RingProc, sim::MessageList<HopMsg>> {
 public:
  RingProc(sim::Simulation& sim, ProcessId id, ProcessId next)
      : ProcessOf(sim, id), next_(next) {}

  void on(ProcessId, const HopMsg& hop) {
    if (hop.hops_left == 0) return;
    auto fwd = make_msg<HopMsg>();
    fwd->hops_left = hop.hops_left - 1;
    send(next_, std::move(fwd));
  }

  /// Sends one message that will be forwarded `hops` more times.
  void seed(int hops) {
    auto msg = make_msg<HopMsg>();
    msg->hops_left = hops;
    send(next_, std::move(msg));
  }

 private:
  ProcessId next_;
};

/// Processes 0..n-1 of `sim`, each forwarding to the next (mod n).
inline std::vector<std::unique_ptr<RingProc>> make_ring(sim::Simulation& sim,
                                                        ProcessId n) {
  std::vector<std::unique_ptr<RingProc>> procs;
  procs.reserve(n);
  for (ProcessId id = 0; id < n; ++id) {
    procs.push_back(std::make_unique<RingProc>(sim, id, (id + 1) % n));
  }
  return procs;
}

}  // namespace rqs::bench
