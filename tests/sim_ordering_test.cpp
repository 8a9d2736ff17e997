// Equal-time event ordering, pinned explicitly.
//
// The golden scenario digests cover these semantics only incidentally; this
// suite locks them in directly so a queue rewrite cannot silently reorder:
//   * deliveries (and schedule_at callbacks) fire before timers at the same
//     instant — the synchrony bound Delta is an upper bound, so a message
//     sent within a timeout window counts when the timeout expires;
//   * FIFO schedule order within a phase, across senders and event kinds;
//   * Timer::cancel semantics around the fire instant: a same-instant
//     delivery can still cancel (its phase comes first), cancelling an
//     idle timer does nothing, and a stale id (a crashed owner's) is a
//     no-op even after its slot is recycled.
// Plus the bookkeeping bounds: timer and callback slots are recycled, so a
// long churn run keeps both structures at the in-flight peak, not at the
// total ever armed (the old engine kept one byte per timer forever).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/network.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"

namespace rqs::sim {
namespace {

struct NoteMsg final : TypedMessage<NoteMsg, MessageList<NoteMsg>, 64> {
  int note{0};
  [[nodiscard]] std::string_view tag() const override { return "NOTE"; }
};

/// Appends "m<note>" per message and "t<id>" per expiry of its timer to a
/// shared log.
class Logger final : public ProcessOf<Logger, MessageList<NoteMsg>> {
 public:
  Logger(Simulation& sim, ProcessId id, std::vector<std::string>& log)
      : ProcessOf(sim, id), log_(log) {}

  void on(ProcessId, const NoteMsg& note) {
    log_.push_back("m" + std::to_string(note.note));
  }

  using Process::send;

  Timer timer{*this, [this] { log_.push_back("t" + std::to_string(id())); }};

 private:
  std::vector<std::string>& log_;
};

MessagePtr note(Simulation& sim, int n) {
  auto msg = sim.msg_pool().make<NoteMsg>();
  msg->note = n;
  return msg;  // implicit move: the rvalue conversion to MessagePtr
}

TEST(SimOrderingTest, DeliveryBeforeTimerAtSameInstant) {
  Simulation sim(/*delta=*/10);
  std::vector<std::string> log;
  Logger a(sim, 0, log), b(sim, 1, log);
  // Timer armed first, message sent second — both due at t = 10. The
  // delivery must still win: phase beats arrival order.
  b.timer.arm(10);
  a.send(1, note(sim, 1));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"m1", "t1"}));
}

TEST(SimOrderingTest, CallbackSharesDeliveryPhaseBeforeTimers) {
  Simulation sim(10);
  std::vector<std::string> log;
  Logger a(sim, 0, log), b(sim, 1, log);
  b.timer.arm(10);
  a.send(1, note(sim, 1));                             // due 10, seq after timer
  sim.schedule_at(10, [&] { log.push_back("cb"); });   // due 10, seq last
  sim.run();
  // Delivery phase is FIFO among messages and callbacks; the timer is last.
  EXPECT_EQ(log, (std::vector<std::string>{"m1", "cb", "t1"}));
}

TEST(SimOrderingTest, FifoWithinPhaseAcrossSenders) {
  Simulation sim(10);
  std::vector<std::string> log;
  Logger a(sim, 0, log), b(sim, 1, log), c(sim, 2, log);
  a.send(2, note(sim, 1));
  b.send(2, note(sim, 2));
  a.send(2, note(sim, 3));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"m1", "m2", "m3"}));
}

TEST(SimOrderingTest, TimersFifoWithinPhase) {
  Simulation sim(10);
  std::vector<std::string> log;
  Logger a(sim, 0, log), b(sim, 1, log), c(sim, 2, log);
  // Arm order, not owner id, decides among expiries due together.
  b.timer.arm(10);
  c.timer.arm(10);
  a.timer.arm(10);
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"t1", "t2", "t0"}));
}

TEST(SimOrderingTest, SameInstantDeliveryCancelsTimer) {
  // The timer's event is already queued for t = 10 when the delivery at
  // t = 10 cancels it ("popped but not yet fired" from the queue's point
  // of view): delivery phase runs first, so the timer must NOT fire.
  Simulation sim(10);
  std::vector<std::string> log;
  Logger b(sim, 1, log);

  class Canceller final : public ProcessOf<Canceller, MessageList<NoteMsg>> {
   public:
    Canceller(Simulation& sim, ProcessId id, Logger& victim)
        : ProcessOf(sim, id), victim_(victim) {}
    void on(ProcessId, const NoteMsg&) { victim_.timer.cancel(); }
    using Process::send;

   private:
    Logger& victim_;
  } canceller(sim, 0, b);

  // Deliver the cancel trigger to the canceller at t=10 (b's timer also 10).
  b.timer.arm(10);
  canceller.send(0, note(sim, 0));  // self-send, arrives t = 10, phase kDelivery
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{}));  // timer never fired
  EXPECT_FALSE(b.timer.armed());
}

TEST(SimOrderingTest, SameInstantCallbackCancelsTimer) {
  Simulation sim(10);
  std::vector<std::string> log;
  Logger a(sim, 0, log);
  a.timer.arm(10);
  sim.schedule_at(10, [&] { a.timer.cancel(); });
  sim.run();
  EXPECT_TRUE(log.empty());
}

TEST(SimOrderingTest, CancellingAnIdleTimerDoesNothing) {
  Simulation sim(10);
  std::vector<std::string> log;
  Logger a(sim, 0, log), b(sim, 1, log);
  b.timer.arm(10);
  a.timer.cancel();  // never armed
  sim.run();
  a.timer.arm(10);
  sim.run();
  // a's expiry ran, so a is idle; b reuses the freed slot.
  EXPECT_FALSE(a.timer.armed());
  b.timer.arm(10);
  a.timer.cancel();
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"t1", "t0", "t1"}));
}

TEST(SimOrderingTest, CrashedOwnersTimerNeverRunsItsHandler) {
  Simulation sim(10);
  std::vector<std::string> log;
  Logger a(sim, 0, log);
  a.timer.arm(10);
  sim.schedule_at(5, [&] { sim.crash(0); });
  sim.run();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(sim.now(), 10);  // the expiry still popped
  // Frozen with its owner: a crashed process takes no further step.
  EXPECT_TRUE(a.timer.armed());
}

TEST(SimOrderingTest, StaleCancelAfterRecycleIsNoOp) {
  // A crashed owner's timer keeps the id of an expiry that has popped and
  // freed its slot. Another timer then reuses the slot under a fresh
  // generation; cancelling the stale id must not touch it.
  Simulation sim(10);
  std::vector<std::string> log;
  Logger a(sim, 0, log), b(sim, 1, log);
  a.timer.arm(10);
  const TimerId stale = a.timer.id();
  sim.crash(0);
  sim.run();
  b.timer.arm(10);
  ASSERT_EQ(b.timer.id() & 0xffffffffu, stale & 0xffffffffu);  // same slot
  EXPECT_NE(b.timer.id(), stale);
  a.timer.cancel();
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"t1"}));
}

TEST(SimOrderingTest, CancelInsideOwnFireIsNoOpAndReArmGetsFreshId) {
  Simulation sim(10);
  class ReArm final : public ProcessOf<ReArm, MessageList<>> {
   public:
    ReArm(Simulation& sim, ProcessId id) : ProcessOf(sim, id) {}
    std::vector<TimerId> ids;  // one per arm
    std::size_t fires{0};
    Timer timer{*this, [this] {
      ++fires;
      EXPECT_FALSE(timer.armed());
      timer.cancel();  // idle inside its own handler: must not affect anything
      if (ids.size() < 3) {
        timer.arm(10);
        ids.push_back(timer.id());
      }
    }};
  } p(sim, 0);
  p.timer.arm(10);
  p.ids.push_back(p.timer.id());
  sim.run();
  EXPECT_EQ(p.fires, 3u);
  ASSERT_EQ(p.ids.size(), 3u);
  EXPECT_NE(p.ids[0], p.ids[1]);
  EXPECT_NE(p.ids[1], p.ids[2]);
  EXPECT_EQ(sim.timer_slot_capacity(), 1u);  // each re-arm reused the slot
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimOrderingTest, TimerSlotsStayBoundedUnderChurn) {
  // Regression for the old engine's monotone timer_state_ vector (one byte
  // per timer ever armed, never reclaimed). Sequential arm/fire/cancel
  // churn must keep the slot table at the in-flight peak.
  Simulation sim(10);
  std::vector<std::string> log;
  Logger keep(sim, 0, log), drop(sim, 1, log);
  for (int round = 0; round < 10000; ++round) {
    keep.timer.arm(5);
    drop.timer.arm(7);
    drop.timer.cancel();
    sim.run();
  }
  EXPECT_EQ(log, std::vector<std::string>(10000, "t0"));
  EXPECT_LE(sim.timer_slot_capacity(), 2u);  // peak in-flight, not 20000
}

TEST(SimOrderingTest, CallbackSlotsStayBoundedUnderChurn) {
  Simulation sim(10);
  std::uint64_t runs = 0;
  for (int round = 0; round < 10000; ++round) {
    sim.schedule_at(sim.now() + 1, [&] { ++runs; });
    sim.schedule_at(sim.now() + 2, [&] { ++runs; });
    sim.run();
  }
  EXPECT_EQ(runs, 20000u);
  EXPECT_LE(sim.callback_slot_capacity(), 2u);
}

TEST(SimOrderingTest, MessagePoolRecyclesBlocksAcrossARun) {
  // Zero-allocation steady state: after warm-up, the pool's reserved slab
  // memory must not grow however many messages a run sends.
  Simulation sim(10);
  std::vector<std::string> log;
  Logger a(sim, 0, log), b(sim, 1, log);

  class Chatter final : public ProcessOf<Chatter, MessageList<NoteMsg>> {
   public:
    Chatter(Simulation& sim, ProcessId id) : ProcessOf(sim, id) {}
    void on(ProcessId from, const NoteMsg& n) {
      if (n.note <= 0) return;
      auto next = make_msg<NoteMsg>();
      next->note = n.note - 1;
      send(from, std::move(next));
    }
    void kick(ProcessId to, int n) {
      auto msg = make_msg<NoteMsg>();
      msg->note = n;
      send(to, std::move(msg));
    }
  } x(sim, 2), y(sim, 3);

  x.kick(3, 10);
  sim.run();
  const std::size_t warm = sim.msg_pool().reserved_bytes();
  x.kick(3, 100000);
  sim.run();
  EXPECT_EQ(sim.msg_pool().reserved_bytes(), warm);
}

// --- Broadcasts -------------------------------------------------------------
// On the network's fast path a send_all is one queued fan-out. It must be
// indistinguishable from one delivery event per target: same order, same
// steps, same counts, the same view for the model checker, and no message
// reference left behind.

/// Logs "<receiver>:m<note>" per delivery and "t" per expiry of its timer,
/// then runs `hook` once if one is set.
class Recorder final : public ProcessOf<Recorder, MessageList<NoteMsg>> {
 public:
  Recorder(Simulation& sim, ProcessId id, std::vector<std::string>& log)
      : ProcessOf(sim, id), log_(log) {}

  void on(ProcessId, const NoteMsg& n) {
    log_.push_back(std::to_string(id()) + ":m" + std::to_string(n.note));
    if (hook) std::exchange(hook, nullptr)();
  }

  using Process::send;
  using Process::send_all;

  std::function<void()> hook;
  Timer timer{*this, [this] { log_.push_back("t"); }};

 private:
  std::vector<std::string>& log_;
};

/// Processes 0..n-1, each logging to `log`.
std::vector<std::unique_ptr<Recorder>> recorders(Simulation& sim, ProcessId n,
                                                 std::vector<std::string>& log) {
  std::vector<std::unique_ptr<Recorder>> out;
  for (ProcessId id = 0; id < n; ++id) {
    out.push_back(std::make_unique<Recorder>(sim, id, log));
  }
  return out;
}

TEST(SimOrderingTest, FanoutDeliversOneTargetPerStepInIdOrder) {
  Simulation sim(10);
  std::vector<std::string> log;
  auto sinks = recorders(sim, 5, log);
  Recorder src(sim, 9, log);
  src.send(0, note(sim, 1));                            // unicast just before
  src.send_all(ProcessSet::universe(5), note(sim, 2));  // all due t = 10
  src.send(0, note(sim, 3));                            // unicast just after
  std::vector<std::uint64_t> delivered;
  while (sim.step()) {
    EXPECT_EQ(log.size(), delivered.size() + 1);  // one target per step
    delivered.push_back(sim.messages_delivered());
  }
  EXPECT_EQ(log, (std::vector<std::string>{"0:m1", "0:m2", "1:m2", "2:m2",
                                           "3:m2", "4:m2", "0:m3"}));
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(SimOrderingTest, SameInstantTimerFiresAfterEveryFanoutTarget) {
  Simulation sim(10);
  std::vector<std::string> log;
  auto sinks = recorders(sim, 4, log);
  sinks[2]->timer.arm(10);  // armed first, due with the broadcast
  sinks[0]->send_all(ProcessSet::universe(4), note(sim, 1));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"0:m1", "1:m1", "2:m1", "3:m1", "t"}));
}

TEST(SimOrderingTest, CallbackScheduledByFirstTargetFiresAfterTheRest) {
  Simulation sim(10);
  std::vector<std::string> log;
  auto sinks = recorders(sim, 3, log);
  sinks[0]->hook = [&] { sim.schedule_at(sim.now(), [&] { log.push_back("cb"); }); };
  sinks[0]->send_all(ProcessSet::universe(3), note(sim, 1));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"0:m1", "1:m1", "2:m1", "cb"}));
}

TEST(SimOrderingTest, FanoutSkipsTargetCrashedAfterSend) {
  Simulation sim(10);
  std::vector<std::string> log;
  auto sinks = recorders(sim, 3, log);
  Recorder src(sim, 9, log);
  src.send_all(ProcessSet::universe(3), note(sim, 1));
  sim.crash(1);
  std::size_t steps = 0;
  while (sim.step()) ++steps;
  EXPECT_EQ(steps, 3u);  // the dead target still takes its step
  EXPECT_EQ(log, (std::vector<std::string>{"0:m1", "2:m1"}));
  EXPECT_EQ(sim.messages_delivered(), 2u);
}

TEST(SimOrderingTest, ModelCheckerHooksSeeOneDeliveryPerPendingTarget) {
  Simulation sim(10);
  std::vector<std::string> log;
  auto sinks = recorders(sim, 4, log);
  Recorder src(sim, 9, log);
  src.send_all(ProcessSet::universe(4), note(sim, 1));
  ASSERT_TRUE(sim.step());  // target 0; targets 1..3 pending

  ASSERT_EQ(sim.queued_count(), 3u);
  std::vector<Event> pending;
  for (std::size_t i = 0; i < sim.queued_count(); ++i) {
    const Event& ev = sim.queued_event(i);
    ASSERT_EQ(ev.kind(), Event::kDelivery);
    EXPECT_EQ(ev.delivery.from, 9u);
    EXPECT_TRUE(sim.event_live(ev));
    pending.push_back(ev);
  }
  // Consecutive keys in target order: the ones per-target sends get.
  std::sort(pending.begin(), pending.end(),
            [](const Event& a, const Event& b) { return a.key < b.key; });
  for (std::size_t i = 0; i < pending.size(); ++i) {
    EXPECT_EQ(pending[i].delivery.to, static_cast<ProcessId>(i + 1));
    EXPECT_EQ(pending[i].key, pending[0].key + i * Event::kSeqStep);
  }

  // Fire target 3 out of order, as the explorer may.
  std::size_t last = sim.queued_count();
  for (std::size_t i = 0; i < sim.queued_count(); ++i) {
    if (sim.queued_event(i).delivery.to == 3) last = i;
  }
  ASSERT_TRUE(sim.fire_queued(last));
  EXPECT_EQ(sim.queued_count(), 2u);
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"0:m1", "3:m1", "1:m1", "2:m1"}));
  EXPECT_EQ(sim.messages_delivered(), 4u);
}

TEST(SimOrderingTest, DestroyingHalfDispatchedFanoutReturnsEveryBlock) {
  MessagePool pool;  // outlives the simulation
  (void)pool.make<NoteMsg>();  // reserve a slab; the block returns at once
  const std::size_t all = pool.free_blocks();
  {
    Simulation sim(10);
    std::vector<std::string> log;
    auto sinks = recorders(sim, 5, log);
    Recorder src(sim, 9, log);
    for (int i = 0; i < 2; ++i) {
      auto msg = pool.make<NoteMsg>();
      msg->note = i;
      src.send_all(ProcessSet::universe(5), std::move(msg));
    }
    ASSERT_TRUE(sim.step());
    ASSERT_TRUE(sim.step());
    EXPECT_EQ(pool.free_blocks(), all - 2);  // both still referenced
  }
  EXPECT_EQ(pool.free_blocks(), all);
}

TEST(SimOrderingTest, FanoutSlotsStayBoundedUnderChurn) {
  Simulation sim(10);
  std::vector<std::string> log;
  auto sinks = recorders(sim, 4, log);
  for (int round = 0; round < 10000; ++round) {
    sinks[0]->send_all(ProcessSet::universe(4), note(sim, round));
    sinks[1]->send_all(ProcessSet::universe(4), note(sim, round));
    sim.run();
    log.clear();
  }
  EXPECT_EQ(sim.messages_delivered(), 80000u);
  EXPECT_LE(sim.fanout_slot_capacity(), 2u);  // peak in-flight, not 20000
}

}  // namespace
}  // namespace rqs::sim
