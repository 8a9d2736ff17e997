// Deterministic discrete-event simulation engine.
//
// The paper's model (Section 3.1): processes are deterministic automata
// taking steps that receive messages, update state and send messages, with
// negligible local computation time; the system is asynchronous but may be
// synchronous during intervals, with a known bound Delta on message delays
// in synchronous periods. This engine realizes that model with a virtual
// clock: every message delivery and timer expiration is an event; events
// at equal times fire in FIFO schedule order, making runs reproducible.
//
// Hot-path design: the event queue is a hand-rolled 4-ary min-heap of POD
// tagged-union events (delivery / timer / callback / fan-out). Deliveries
// park a raw refcounted message pointer, timers carry their id inline (the
// id's slot remembers the sim::Timer whose handler the expiry runs), and
// the rare schedule_at() callbacks touch a std::function (stored in a slot
// vector on the side, so heap nodes stay trivially copyable). A broadcast on
// the network's fast path is one fan-out entry whose side slot holds the
// message, the sender and the targets still to deliver. It reserves one
// sequence number per target, so step() hands it out one target per call,
// each under the key its own delivery event would have had: a broadcast to
// n targets costs one heap push, not n. Steady-state message delivery
// allocates nothing and never copies a closure.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/process_set.hpp"
#include "common/types.hpp"
#include "sim/message.hpp"

namespace rqs::obs {
class Observer;
}  // namespace rqs::obs

namespace rqs::sim {

/// Virtual time. The unit is arbitrary; protocols only compare against the
/// synchrony bound Delta. Benches use kDelta = 1000 ("1ms links").
using SimTime = std::int64_t;

/// Default synchrony bound used across tests and benches.
inline constexpr SimTime kDefaultDelta = 1000;

class Process;
class Network;
class Timer;

/// Identifier of a pending timer expiry. Encodes (generation, slot) so
/// slots can be recycled after an expiry fires or is cancelled without a
/// stale id ever matching a newer one. Never 0.
using TimerId = std::uint64_t;

/// One queued event: exactly 32 bytes of POD. Heap sift operations are
/// plain copies, and the pop in step() moves this struct instead of a
/// std::function (the old queue copied a closure per event). A fan-out is
/// one broadcast's pending deliveries. It reserves one sequence number per
/// target at send time, so no other event sorts between its deliveries;
/// its key names the next target's number and advances by kSeqStep per
/// delivered target.
struct Event {
  enum Kind : std::uint64_t { kDelivery = 0, kTimer = 1, kCallback = 2, kFanout = 3 };
  /// One sequence number, in key units.
  static constexpr std::uint64_t kSeqStep = 4;

  SimTime at;
  /// Composite tie-break AND discriminant:
  ///   bit 63      phase (0 = delivery/callback/fan-out, 1 = timer)
  ///   bits 62..2  sequence number (FIFO within a phase)
  ///   bits 1..0   Kind (below the sequence bits: never affects ordering)
  /// Timers fire *after* message deliveries and callbacks scheduled for
  /// the same instant — the synchrony bound Delta is an upper bound on
  /// delays, so a message sent within a timeout window must be counted
  /// when the timeout expires. Within a phase, the sequence gives FIFO
  /// schedule order.
  std::uint64_t key;
  union {
    struct {
      ProcessId from;
      ProcessId to;
      const Message* msg;  // one reference, owned by the event
    } delivery;
    struct {
      TimerId id;
      ProcessId owner;
      // Per-owner arm ordinal (the k-th timer this process ever armed).
      // Unlike TimerId — whose (generation, slot) encoding depends on the
      // global allocation order and so differs between equivalent
      // schedules — this is a process-local count, making it a canonical
      // name for the timer in model-checker state digests and choice keys.
      std::uint32_t arm_seq;
    } timer;
    struct {
      std::uint32_t slot;  // index into Simulation::callbacks_
    } callback;
    struct {
      std::uint32_t slot;  // index into Simulation::fanouts_
    } fanout;
  };

  [[nodiscard]] Kind kind() const noexcept { return static_cast<Kind>(key & 3); }
};
// The heap's whole performance contract, pinned at compile time: sift
// operations are plain 32-byte copies, so Event must stay a trivially
// copyable standard-layout POD that packs two per cache line. Anyone adding
// a non-trivial member (a std::function, a smart pointer) fails here, not
// in a bench regression.
static_assert(sizeof(Event) == 32,
              "Event must stay exactly 32 bytes: two per cache line, and "
              "heap sifts are sized-copy loops");
static_assert(std::is_trivially_copyable_v<Event>,
              "Event must be trivially copyable: the 4-ary heap moves "
              "events with plain copies");
static_assert(std::is_standard_layout_v<Event>);
static_assert(std::is_trivially_destructible_v<Event>,
              "Event owns its delivery message ref manually (dispatch / "
              "~Simulation); a destructor would double-release");
static_assert(alignof(Event) == 8);

/// Hand-rolled 4-ary min-heap over (at, key). A fanout of 4 halves the
/// tree depth of a binary heap and keeps sift-down children in one cache
/// line's worth of events, which measurably beats std::priority_queue on
/// the delivery-heavy workloads here. Pop order is the strict total order
/// (at, key) — identical to the previous priority_queue semantics.
class EventHeap {
 public:
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] const Event& top() const noexcept { return v_.front(); }
  /// Every queued event, heap order (for destructor cleanup only).
  [[nodiscard]] const std::vector<Event>& raw() const noexcept { return v_; }

  // rqs-hot-path
  void push(const Event& e) {
    // Hole-shift instead of swap chains: parents slide down into the hole
    // and the new event lands once.
    v_.push_back(e);  // rqs-lint: allow(hot-path-alloc) amortized — the heap vector reaches steady-state capacity and is reused across the run
    std::size_t i = v_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(e, v_[parent])) break;
      v_[i] = v_[parent];
      i = parent;
    }
    v_[i] = e;
  }

  /// Raises the top event's key by one sequence number in place. Only for
  /// a fan-out moving to its next reserved number: no other queued event
  /// sorts in between, so the top stays the minimum and nothing sifts.
  void advance_top() noexcept {
    v_.front().key += Event::kSeqStep;
    assert(top_is_min());
  }

  // rqs-hot-path
  Event pop() {
    const Event out = v_.front();
    const Event last = v_.back();
    v_.pop_back();
    if (!v_.empty()) sift_down(0, last);
    return out;
  }

  /// Removes the event at an arbitrary heap position (replace-with-last,
  /// then sift whichever direction restores the invariant). The model
  /// checker uses this to fire queued events out of (at, key) order —
  /// delivery order *is* the nondeterminism it explores.
  Event remove_at(std::size_t i) {
    const Event out = v_[i];
    const Event last = v_.back();
    v_.pop_back();
    if (i < v_.size()) {
      std::size_t j = i;
      while (j > 0) {
        const std::size_t parent = (j - 1) / 4;
        if (!before(last, v_[parent])) break;
        v_[j] = v_[parent];
        j = parent;
      }
      if (j != i) {
        v_[j] = last;
      } else {
        sift_down(i, last);
      }
    }
    return out;
  }

 private:
  [[nodiscard]] static bool before(const Event& a, const Event& b) noexcept {
    return a.at != b.at ? a.at < b.at : a.key < b.key;
  }

  [[nodiscard]] bool top_is_min() const noexcept {
    for (std::size_t c = 1; c < std::min<std::size_t>(5, v_.size()); ++c) {
      if (before(v_[c], v_.front())) return false;
    }
    return true;
  }

  // rqs-hot-path
  void sift_down(std::size_t i, const Event& e) {
    const std::size_t n = v_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t stop = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < stop; ++c) {
        if (before(v_[c], v_[best])) best = c;
      }
      if (!before(v_[best], e)) break;
      v_[i] = v_[best];
      i = best;
    }
    v_[i] = e;
  }

  std::vector<Event> v_;
};

class Simulation {
 public:
  explicit Simulation(SimTime delta = kDefaultDelta);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] SimTime delta() const noexcept { return delta_; }

  [[nodiscard]] Network& network() noexcept { return *network_; }

  /// The simulation's message pool; Process::make_msg() routes here so
  /// steady-state sends recycle blocks instead of allocating.
  [[nodiscard]] MessagePool& msg_pool() noexcept { return pool_; }

  /// Registers a process under its id. The simulation does not own
  /// processes; the caller keeps them alive for the run's duration. Throws
  /// std::invalid_argument, naming the id, when the id is already taken.
  void add_process(Process& p);
  [[nodiscard]] Process* process(ProcessId id) const;

  /// Marks `id` crashed: no further events (messages, timers) reach it and
  /// nothing it tries to send leaves it.
  void crash(ProcessId id);
  [[nodiscard]] bool crashed(ProcessId id) const;

  /// Schedules an arbitrary callback at absolute virtual time `at`; times
  /// in the past are clamped to now(), so a late caller cannot reorder the
  /// queue behind already-fired events. Used by scenario drivers to inject
  /// operations and faults. Callbacks share the delivery phase (they fire
  /// before timers at the same instant, FIFO with deliveries).
  void schedule_at(SimTime at, std::function<void()> fn);

  /// Schedules message delivery to `to` at time `at` (used by Network).
  void deliver_at(SimTime at, ProcessId from, ProcessId to, MessagePtr msg);

  /// Schedules delivery of `msg` to every member of the non-empty
  /// `targets` at time `at` as one queued fan-out (used by
  /// Network::send_all). Ordering, observer sends and delivery counts are
  /// those of one deliver_at() per target in ascending id order.
  void fan_out(SimTime at, ProcessId from, ProcessSet targets, MessagePtr msg);

  /// Runs until the event queue is empty or `deadline` is passed
  /// (events at exactly `deadline` still fire). Returns the time of the
  /// last fired event.
  SimTime run(SimTime deadline = std::numeric_limits<SimTime>::max());

  /// Steps until `done()` holds; false when the queue is empty or now()
  /// is past `deadline` first. Both are checked before each step, so the
  /// step that carries now() past `deadline` still fires.
  template <typename Done>
  bool run_until(Done done, SimTime deadline) {
    while (!done()) {
      if (queue_.empty() || now_ > deadline) return false;
      step();
    }
    return true;
  }

  /// Fires the single next event; false if the queue is empty.
  bool step();

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }

  // --- Model-checker ordering hooks (src/mc) -----------------------------
  // The schedule-space explorer drives the queue directly: it enumerates
  // the pending events, asks which would actually reach a handler, and
  // fires them in arbitrary order — selection order, not virtual time, is
  // the nondeterminism it explores, so mc runs use delta = 0 and every
  // event sits at now(). Whose state each event mutates, and so which
  // events commute, is the model checker's to say (mc::McExecution's
  // event_choice() and mc::independent()).

  // queued_count(), queued_event() and fire_queued() first expand every
  // pending fan-out into per-target deliveries under their reserved keys,
  // so the explorer only ever sees one delivery per target.
  [[nodiscard]] std::size_t queued_count() {
    expand_fanouts();
    return queue_.size();
  }
  /// The i-th queued event, heap order (no ordering guarantee).
  [[nodiscard]] const Event& queued_event(std::size_t i) {
    expand_fanouts();
    return queue_.raw()[i];
  }
  /// True iff dispatching `ev`, an event queued_event() returned, now
  /// would invoke a handler: a delivery to a live registered process, or
  /// an un-cancelled timer expiry of a live owner. Dead events are no-ops;
  /// the explorer drains them eagerly instead of treating them as
  /// scheduling choices.
  [[nodiscard]] bool event_live(const Event& ev) const;
  /// Removes the i-th queued event (any heap position) and dispatches it
  /// at now(). Returns false if `i` is out of range.
  bool fire_queued(std::size_t i);

  /// Statistics: total messages delivered so far.
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return messages_delivered_;
  }

  /// Attaches (or detaches, with nullptr) an observer. Null by default:
  /// every hook site on the hot path pays exactly one predictable branch
  /// when off. Observation is passive — attaching one never changes the
  /// event order or any protocol-visible state, so golden digests stay
  /// byte-identical whether tracing is on or off. The caller keeps the
  /// observer alive while attached.
  void set_observer(obs::Observer* ob) noexcept { obs_ = ob; }
  [[nodiscard]] obs::Observer* observer() const noexcept { return obs_; }

  /// Timer bookkeeping capacity — the number of timer *slots* ever
  /// allocated. Slots are recycled when their timer fires or its event
  /// pops cancelled, so this is bounded by the peak number of in-flight
  /// timers, not by the total armed over the run (the old scheme kept one
  /// byte per timer ever armed, forever).
  [[nodiscard]] std::size_t timer_slot_capacity() const noexcept {
    return timer_slots_.size();
  }
  /// Callback bookkeeping capacity, bounded the same way.
  [[nodiscard]] std::size_t callback_slot_capacity() const noexcept {
    return callbacks_.size();
  }
  /// Fan-out bookkeeping capacity, bounded the same way: a slot is freed
  /// when its last target is delivered.
  [[nodiscard]] std::size_t fanout_slot_capacity() const noexcept {
    return fanouts_.size();
  }

 private:
  friend class Timer;

  // Phase bit of Event::key; see Event.
  static constexpr std::uint64_t kDeliveryPhase = 0;
  static constexpr std::uint64_t kTimerPhase = std::uint64_t{1} << 63;

  struct TimerSlot {
    std::uint32_t gen;  // bumped on free; never 0
    Timer* timer;       // whose handler the expiry runs; null once cancelled
  };

  /// Queues `timer`'s expiry at now()+delay (Timer::arm).
  TimerId arm_timer(Timer& timer, SimTime delay);
  /// Marks the expiry `id` cancelled; a stale id is a no-op (Timer::cancel).
  void cancel_timer(TimerId id);

  struct FanoutSlot {
    MessagePtr msg;     // one reference, shared by the remaining targets
    ProcessSet targets; // not yet delivered; the lowest id goes next
    ProcessId from;
  };

  [[nodiscard]] std::uint64_t next_key(std::uint64_t phase,
                                       Event::Kind kind) noexcept {
    return phase | (next_seq_++ << 2) | kind;
  }

  void dispatch(const Event& ev);
  /// Takes the lowest remaining target off fan-out `fan` as a delivery
  /// event with that target's reserved key and its own message reference.
  /// Returns false when it was the last target; the slot is then free.
  bool peel(const Event& fan, Event& delivery);
  /// Inline so the model checker's per-event accessor calls stay cheap
  /// when nothing is pending; every occupied slot is one queued fan-out.
  void expand_fanouts() {
    if (fanout_free_.size() != fanouts_.size()) expand_pending_fanouts();
  }
  void expand_pending_fanouts();

  SimTime now_{0};
  SimTime delta_;
  std::uint64_t next_seq_{0};
  std::uint64_t messages_delivered_{0};
  obs::Observer* obs_{nullptr};
  MessagePool pool_;  // declared before queue_: events release refs first
  EventHeap queue_;
  // Dense per-process state. ProcessIds are small and contiguous in every
  // harness: the simulator is 1-word by construction (ids < 64, the
  // protocol width of the process_set.hpp width-selection rule — wider
  // BasicProcessSet widths are analysis-only and never enter the sim), so
  // vectors keyed by id beat maps on the delivery hot path; slots for
  // unregistered ids stay null/false.
  std::vector<Process*> processes_;
  std::vector<std::uint8_t> crashed_;
  // Timer slots, recycled through a free list; TimerId = (gen << 32)|slot.
  std::vector<TimerSlot> timer_slots_;
  std::vector<std::uint32_t> timer_free_;
  // Per-owner count of timers ever armed, stamped into Event::timer as the
  // canonical arm ordinal (see Event).
  std::vector<std::uint32_t> timer_arms_;
  // Parked schedule_at callbacks, recycled through a free list; heap
  // events reference them by slot so Event stays POD.
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint32_t> callback_free_;
  // Pending broadcasts, recycled the same way. Declared after pool_, so
  // the references they still hold are released before the pool goes.
  std::vector<FanoutSlot> fanouts_;
  std::vector<std::uint32_t> fanout_free_;
  std::unique_ptr<Network> network_;
};

}  // namespace rqs::sim
