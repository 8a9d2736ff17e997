// Base classes for simulated processes (the paper's deterministic automata).
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>

#include "common/process_set.hpp"
#include "sim/message.hpp"
#include "sim/simulation.hpp"

namespace rqs::sim {

template <class Self, class List, class Dropped>
class ProcessOf;

/// What the simulator sees of a process. Only ProcessOf may construct one,
/// so every process names the messages it hears.
///
/// A copy of a process holds its state without being one: it keeps the
/// wiring (the simulation, the id, and the owner and handler of each
/// Timer) but is not registered, so no event reaches it. Assigning the
/// copy back to the process it was taken from restores that state; the
/// model checker backtracks this way. Assignment asserts that both sides
/// are the same process and copies only state.
class Process {
 public:
  virtual ~Process() = default;

  [[nodiscard]] ProcessId id() const noexcept { return id_; }
  [[nodiscard]] Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] SimTime now() const noexcept { return sim_.now(); }

  /// Delivery of `m` sent by `from`. The receive + computation + send
  /// substeps of the paper all happen inside (virtual time does not
  /// advance during a step).
  virtual void on_message(ProcessId from, const Message& m) = 0;

  /// Folds the process's protocol-visible state into `h` for the model
  /// checker's visited-state digest. Two states may collide only if every
  /// future behavior from them is identical, so overrides must cover every
  /// field that influences later steps — but must *exclude* values that
  /// differ between equivalent schedules (Timer::id(): its (generation,
  /// slot) encoding depends on global allocation order; mix armed()
  /// instead) and should exclude observation-only counters so equivalent
  /// states merge.
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

 private:
  template <class, class, class>
  friend class ProcessOf;

  Process(Simulation& sim, ProcessId id);
  Process(const Process&) = default;
  Process& operator=([[maybe_unused]] const Process& o) noexcept {
    assert(&o.sim_ == &sim_ && o.id_ == id_ && "state of another process");
    return *this;
  }

  Simulation& sim_;
  ProcessId id_;
};

/// A `void()` reaction that owns no heap memory: a lambda capturing at
/// most one pointer (typically `[this]`), stored in place, so building one
/// never allocates.
class Reaction {
 public:
  template <class F>
    requires std::is_invocable_r_v<void, const F&> &&
             std::is_trivially_copyable_v<F> &&
             (sizeof(F) <= sizeof(void*)) && (alignof(F) <= alignof(void*))
  Reaction(F f) noexcept  // implicit: a lambda argument reads as a Reaction
      : run_([](const void* stored) {
          (*std::launder(static_cast<const F*>(stored)))();
        }) {
    ::new (static_cast<void*>(store_)) F(f);
  }

  void operator()() const { run_(store_); }

 private:
  alignas(void*) std::byte store_[sizeof(void*)];
  void (*run_)(const void*);
};

/// One named timeout of a process, bound to the handler its expiry runs:
/// the only way to queue an expiry, so every armed timer has a handler by
/// construction. A member of its owner, built with the owner and the
/// handler. The simulation keeps its address while an expiry is queued.
/// A crashed owner's timers freeze with it: the expiry is dropped unrun
/// and armed() keeps its value.
///
/// Copies follow their owner's (see Process): a copy keeps the owner and
/// the handler and only holds the expiry id, so it must never be armed or
/// cancelled. Assignment asserts that both sides belong to one owner and
/// copies the id, including the stale one a crashed owner keeps.
class Timer {
 public:
  Timer(Process& owner, Reaction on_expiry) noexcept
      : owner_(owner), on_expiry_(on_expiry) {}

  Timer(const Timer&) noexcept = default;
  Timer& operator=(const Timer& o) noexcept {
    assert(&o.owner_ == &owner_ && "state of another owner's timer");
    id_ = o.id_;
    return *this;
  }

  /// True from arm() until the expiry runs the handler or cancel().
  [[nodiscard]] bool armed() const noexcept { return id_ != 0; }
  /// The pending expiry's id, 0 when idle.
  [[nodiscard]] TimerId id() const noexcept { return id_; }

  /// Queues an expiry `delay` virtual time units from now, cancelling a
  /// pending one first.
  void arm(SimTime delay) {
    cancel();
    id_ = owner_.sim().arm_timer(*this, delay);
  }

  /// Drops the pending expiry; a no-op when idle.
  void cancel() {
    if (id_ == 0) return;
    owner_.sim().cancel_timer(id_);
    id_ = 0;
  }

 private:
  friend class Simulation;

  Process& owner_;
  Reaction on_expiry_;
  TimerId id_{0};
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
  ProcessOf(const ProcessOf&) = default;
  ProcessOf& operator=(const ProcessOf&) = default;

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
