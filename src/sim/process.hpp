// Base class for simulated processes (the paper's deterministic automata).
#pragma once

#include "common/process_set.hpp"
#include "sim/message.hpp"
#include "sim/simulation.hpp"

namespace rqs::sim {

class Process {
 public:
  Process(Simulation& sim, ProcessId id);
  virtual ~Process() = default;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] ProcessId id() const noexcept { return id_; }
  [[nodiscard]] Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] SimTime now() const noexcept { return sim_.now(); }

  /// Delivery of `m` sent by `from`. The receive + computation + send
  /// substeps of the paper all happen inside (virtual time does not
  /// advance during a step).
  virtual void on_message(ProcessId from, const Message& m) = 0;

  /// A timer armed via set_timer fired.
  virtual void on_timer(TimerId timer) { (void)timer; }

  /// Folds the process's protocol-visible state into `h` for the model
  /// checker's visited-state digest. Two states may collide only if every
  /// future behavior from them is identical, so overrides must cover every
  /// field that influences later steps — but must *exclude* values that
  /// differ between equivalent schedules (TimerId handles: their
  /// (generation, slot) encoding depends on global allocation order) and
  /// should exclude observation-only counters so equivalent states merge.
  virtual void digest_state(Fnv64& h) const { (void)h; }

 protected:
  /// Builds a message in the simulation's pool: mutable until passed to
  /// send()/send_all(), recycled after the last receiver's delivery.
  template <ConcreteMessage M, typename... Args>
  [[nodiscard]] PooledMessage<M> make_msg(Args&&... args) {
    return sim_.msg_pool().make<M>(std::forward<Args>(args)...);
  }

  /// Sends a message (no-op if this process crashed).
  void send(ProcessId to, MessagePtr msg);

  /// Sends msg to every member of `targets` (one shared message; see
  /// Network::send_all).
  void send_all(ProcessSet targets, MessagePtr msg);

  /// Arms a timer firing after `delay` virtual time units.
  TimerId set_timer(SimTime delay) { return sim_.arm_timer(id_, delay); }
  void cancel_timer(TimerId t) { sim_.cancel_timer(t); }

 private:
  Simulation& sim_;
  ProcessId id_;
};

}  // namespace rqs::sim
