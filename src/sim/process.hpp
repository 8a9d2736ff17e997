// Base classes for simulated processes (the paper's deterministic automata).
#pragma once

#include "common/process_set.hpp"
#include "sim/message.hpp"
#include "sim/simulation.hpp"

namespace rqs::sim {

template <class Self, class List, class Dropped>
class ProcessOf;

/// What the simulator sees of a process. Only ProcessOf may construct one,
/// so every process names the messages it hears.
class Process {
 public:
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
  template <class, class, class>
  friend class ProcessOf;

  Process(Simulation& sim, ProcessId id);

  Simulation& sim_;
  ProcessId id_;
};

/// Base of every process: the paper's "upon receiving m" clauses, one per
/// type of the protocol's MessageList. Self declares a public
/// `void on(ProcessId from, const M& m)` for each type M of List, except
/// the types Dropped names: Self ignores those on purpose and says why in
/// a comment on the class. on_message hands a delivery to the handler of
/// its type, one compare per handled type, and ignores a type List does
/// not hold. The build fails when a listed type is neither handled nor
/// dropped, when a dropped type has a handler, when Dropped names a type
/// List does not hold, or when a catch-all on() would hide a missing
/// handler.
template <class Self, class List, class Dropped = MessageList<>>
class ProcessOf : public Process {
 public:
  void on_message(ProcessId from, const Message& m) final {
    static_assert(Dropped::template kWithin<List>,
                  "Dropped names a message type that the process's "
                  "MessageList does not hold");
    static_assert(
        !requires(Self& s, ProcessId f, const Probe& p) { s.on(f, p); },
        "a catch-all on() would hide a missing handler: declare one "
        "on(ProcessId, const M&) per message type M");
    dispatch(from, m, List{});
  }

 protected:
  ProcessOf(Simulation& sim, ProcessId id) : Process(sim, id) {}

 private:
  /// A message type no process can name, so only a catch-all on() — a
  /// template or one taking `const Message&` — accepts it.
  struct Probe : Message {};

  template <class... Ms>
  void dispatch([[maybe_unused]] ProcessId from,
                [[maybe_unused]] const Message& m,
                MessageList<Ms...> /*list*/) {
    (void)((m.type() == Ms::kType && (deliver<Ms>(from, m), true)) || ...);
  }

  template <class M>
  void deliver(ProcessId from, const Message& m) {
    constexpr bool handled =
        requires(Self& s, ProcessId f, const M& msg) { s.on(f, msg); };
    constexpr bool dropped = Dropped::template kHolds<M>;
    static_assert(!(handled && dropped),
                  "a message type in Dropped must have no on() handler");
    if constexpr (!dropped) {
      static_assert(handled,
                    "a listed message type needs a public "
                    "on(ProcessId, const M&) handler or a place in Dropped");
      static_cast<Self&>(*this).on(from, static_cast<const M&>(m));
    }
  }
};

}  // namespace rqs::sim
