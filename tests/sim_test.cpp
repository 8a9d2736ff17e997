// Tests for the discrete-event simulator: event ordering, timers, network
// rules, crashes and the simulated signature authority.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/network.hpp"
#include "sim/process.hpp"
#include "sim/signature.hpp"
#include "sim/simulation.hpp"

namespace rqs::sim {
namespace {

struct PingMsg final : TypedMessage<PingMsg, MessageList<PingMsg>, 64> {
  int payload{0};
  [[nodiscard]] std::string_view tag() const override { return "PING"; }
};

/// A type no Recorder lists.
struct StrayMsg final : TypedMessage<StrayMsg, MessageList<StrayMsg>, 64> {
  [[nodiscard]] std::string_view tag() const override { return "STRAY"; }
};

/// Records every ping it receives; optionally echoes back.
class Recorder final : public ProcessOf<Recorder, MessageList<PingMsg>> {
 public:
  Recorder(Simulation& sim, ProcessId id, bool echo = false)
      : ProcessOf(sim, id), echo_(echo) {}

  void on(ProcessId from, const PingMsg& ping) {
    received.push_back({from, ping.payload, now()});
    if (echo_) {
      auto reply = make_msg<PingMsg>();
      reply->payload = ping.payload + 1;
      send(from, std::move(reply));
    }
  }
  void on_timer(TimerId t) override { timers.push_back({t, now()}); }

  using Process::send;      // widen for tests
  using Process::send_all;
  using Process::set_timer;
  using Process::cancel_timer;

  struct Rx {
    ProcessId from;
    int payload;
    SimTime at;
  };
  std::vector<Rx> received;
  std::vector<std::pair<TimerId, SimTime>> timers;

 private:
  bool echo_;
};

TEST(SimTest, MessageDeliveredAfterDefaultDelta) {
  Simulation sim(/*delta=*/10);
  Recorder a(sim, 0), b(sim, 1);
  sim.network().set_default_delay(sim.delta());
  auto msg = sim.msg_pool().make<PingMsg>();
  msg->payload = 42;
  a.send(1, std::move(msg));
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].payload, 42);
  EXPECT_EQ(b.received[0].at, 10);
  EXPECT_EQ(b.received[0].from, 0u);
}

TEST(SimTest, RoundTripTakesTwoDeltas) {
  Simulation sim(/*delta=*/10);
  Recorder a(sim, 0);
  Recorder b(sim, 1, /*echo=*/true);
  a.send(1, sim.msg_pool().make<PingMsg>());
  sim.run();
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(a.received[0].at, 20);
}

TEST(SimTest, UnlistedMessageTypeReachesNoHandler) {
  // The stray is delivered, but no handler runs: the echoing receiver
  // neither records it nor replies.
  Simulation sim(/*delta=*/10);
  Recorder a(sim, 0);
  Recorder b(sim, 1, /*echo=*/true);
  a.send(1, sim.msg_pool().make<StrayMsg>());
  sim.run();
  EXPECT_EQ(sim.messages_delivered(), 1u);
  EXPECT_TRUE(b.received.empty());
  EXPECT_TRUE(b.timers.empty());
  EXPECT_EQ(sim.network().messages_sent(), 1u);
}

TEST(SimTest, FifoTieBreakAtEqualTimes) {
  Simulation sim(10);
  Recorder a(sim, 0), b(sim, 1);
  for (int i = 0; i < 5; ++i) {
    auto msg = sim.msg_pool().make<PingMsg>();
    msg->payload = i;
    a.send(1, std::move(msg));
  }
  sim.run();
  ASSERT_EQ(b.received.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(b.received[i].payload, i);
}

TEST(SimTest, CrashedProcessNeitherReceivesNorSends) {
  Simulation sim(10);
  Recorder a(sim, 0), b(sim, 1, /*echo=*/true);
  sim.crash(1);
  a.send(1, sim.msg_pool().make<PingMsg>());
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_TRUE(a.received.empty());
}

TEST(SimTest, CrashMidFlightSuppressesDelivery) {
  Simulation sim(10);
  Recorder a(sim, 0), b(sim, 1);
  a.send(1, sim.msg_pool().make<PingMsg>());
  sim.schedule_at(5, [&] { sim.crash(1); });
  sim.run();
  EXPECT_TRUE(b.received.empty());
}

TEST(SimTest, TimersFireAndCancel) {
  Simulation sim(10);
  Recorder a(sim, 0);
  const TimerId t1 = a.set_timer(30);
  const TimerId t2 = a.set_timer(50);
  a.cancel_timer(t2);
  sim.run();
  ASSERT_EQ(a.timers.size(), 1u);
  EXPECT_EQ(a.timers[0].first, t1);
  EXPECT_EQ(a.timers[0].second, 30);
}

TEST(SimTest, ScheduledCallbacksRunInTimeOrder) {
  Simulation sim(10);
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimTest, PastTimeScheduleClampsToNowWithoutReordering) {
  // Regression: scheduling behind the virtual clock used to corrupt the
  // queue order in builds without asserts (the event would sort before
  // already-fired times). The clamp pins it to now(), after events already
  // queued for now() in the same phase.
  Simulation sim(10);
  std::vector<int> order;
  sim.schedule_at(50, [&] {
    order.push_back(1);
    sim.schedule_at(0, [&] { order.push_back(2); });   // in the past: clamp
    sim.schedule_at(50, [&] { order.push_back(3); });  // same instant, later seq
  });
  sim.schedule_at(60, [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 60);
}

TEST(SimTest, RunRespectsDeadline) {
  Simulation sim(10);
  bool late = false;
  sim.schedule_at(100, [&] { late = true; });
  sim.run(/*deadline=*/50);
  EXPECT_FALSE(late);
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_TRUE(late);
}

TEST(SimTest, BlockRuleDropsMatchingMessages) {
  Simulation sim(10);
  Recorder a(sim, 0), b(sim, 1), c(sim, 2);
  sim.network().block(ProcessSet{0}, ProcessSet{1});
  a.send(1, sim.msg_pool().make<PingMsg>());
  a.send(2, sim.msg_pool().make<PingMsg>());
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(c.received.size(), 1u);
  EXPECT_EQ(sim.network().messages_dropped(), 1u);
}

TEST(SimTest, HoldUntilDelaysDelivery) {
  Simulation sim(10);
  Recorder a(sim, 0), b(sim, 1);
  sim.network().hold_until(ProcessSet{0}, ProcessSet{1}, /*until=*/500);
  a.send(1, sim.msg_pool().make<PingMsg>());
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].at, 500);
}

TEST(SimTest, RuleRemovalRestoresDefault) {
  Simulation sim(10);
  Recorder a(sim, 0), b(sim, 1);
  const std::size_t rule = sim.network().block(ProcessSet{0}, ProcessSet{1});
  sim.network().remove_rule(rule);
  a.send(1, sim.msg_pool().make<PingMsg>());
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(SimTest, NewestRuleWins) {
  Simulation sim(10);
  Recorder a(sim, 0), b(sim, 1);
  sim.network().fixed_delay(ProcessSet{0}, ProcessSet{1}, 100);
  sim.network().fixed_delay(ProcessSet{0}, ProcessSet{1}, 200);  // newer
  a.send(1, sim.msg_pool().make<PingMsg>());
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].at, 200);
}

TEST(SimTest, LossDropsProbabilistically) {
  Simulation sim(10);
  Recorder a(sim, 0), b(sim, 1);
  sim.network().set_loss(1.0, /*seed=*/42);  // p = 1: every draw is below it
  a.send(1, sim.msg_pool().make<PingMsg>());
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(sim.network().messages_dropped(), 1u);
}

TEST(SimTest, LossStreamIsSeedDeterministicPerLink) {
  // The drop pattern for a link is a pure function of (seed, from, to,
  // send ordinal): two runs with the same seed agree send-for-send, and
  // the pattern survives interleaving with traffic on other links.
  auto pattern = [](std::uint64_t seed, bool interleave) {
    Simulation sim(10);
    Recorder a(sim, 0), b(sim, 1), c(sim, 2);
    sim.network().set_loss(0.5, seed);
    std::vector<bool> delivered;
    for (int i = 0; i < 64; ++i) {
      const std::size_t before = b.received.size();
      a.send(1, sim.msg_pool().make<PingMsg>());
      if (interleave) a.send(2, sim.msg_pool().make<PingMsg>());
      sim.run();
      delivered.push_back(b.received.size() > before);
    }
    return delivered;
  };
  EXPECT_EQ(pattern(7, false), pattern(7, false));
  EXPECT_EQ(pattern(7, false), pattern(7, true));
  EXPECT_NE(pattern(7, false), pattern(8, false));
}

TEST(SimTest, DuplicationDeliversTwiceDeterministically) {
  Simulation sim(10);
  Recorder a(sim, 0), b(sim, 1);
  sim.network().set_duplication(1.0, /*seed=*/3);
  a.send(1, sim.msg_pool().make<PingMsg>());
  sim.run();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(sim.network().messages_duplicated(), 1u);
  // The copy is strictly later (extra delay in [1, 2 * default_delay]).
  EXPECT_EQ(b.received[0].at, 10);
  EXPECT_GT(b.received[1].at, 10);
  EXPECT_LE(b.received[1].at, 30);
}

TEST(SimTest, DuplicatedCopyTakesItsOwnLossDraw) {
  // p_loss = 1 kills both the primary and the copy; nothing arrives but
  // the duplication counter never exceeds deliveries.
  Simulation sim(10);
  Recorder a(sim, 0), b(sim, 1);
  sim.network().set_loss(1.0, 5);
  sim.network().set_duplication(1.0, 6);
  a.send(1, sim.msg_pool().make<PingMsg>());
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(sim.network().messages_duplicated(), 0u);
}

TEST(SimTest, MessageCountersTrack) {
  Simulation sim(10);
  Recorder a(sim, 0), b(sim, 1);
  a.send(1, sim.msg_pool().make<PingMsg>());
  a.send(1, sim.msg_pool().make<PingMsg>());
  sim.run();
  EXPECT_EQ(sim.network().messages_sent(), 2u);
  EXPECT_EQ(sim.messages_delivered(), 2u);
}

TEST(SimTest, SecondProcessUnderATakenIdThrowsAndNamesTheId) {
  // Without the check a Release build let the second registration replace
  // the first, so every message sent to the first reached the second.
  Simulation sim(10);
  Recorder first(sim, 45);
  try {
    Recorder second(sim, 45);
    ADD_FAILURE() << "a second process was registered under id 45";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("45"), std::string::npos) << e.what();
  }
  EXPECT_EQ(sim.process(45), &first);
}

// --- Signatures ---

TEST(SignatureTest, SignVerifyRoundTrip) {
  SignatureAuthority auth;
  const Signer alice(auth, 1);
  const Signature sig = alice.sign("hello");
  EXPECT_TRUE(auth.verify(sig, 1, "hello"));
}

TEST(SignatureTest, WrongPayloadFails) {
  SignatureAuthority auth;
  const Signer alice(auth, 1);
  const Signature sig = alice.sign("hello");
  EXPECT_FALSE(auth.verify(sig, 1, "bye"));
}

TEST(SignatureTest, WrongSignerFails) {
  SignatureAuthority auth;
  const Signer alice(auth, 1);
  const Signature sig = alice.sign("hello");
  EXPECT_FALSE(auth.verify(sig, 2, "hello"));
}

TEST(SignatureTest, ForgedSignatureFails) {
  SignatureAuthority auth;
  // A Byzantine process fabricates a Signature struct out of thin air.
  const Signature forged{1, 12345};
  EXPECT_FALSE(auth.verify(forged, 1, "anything"));
}

TEST(SignatureTest, ReplayOfGenuineSignatureVerifies) {
  // Replays are allowed by the model: the signature still only vouches
  // for the original payload.
  SignatureAuthority auth;
  const Signer alice(auth, 1);
  const Signature sig = alice.sign("v=1,view=3");
  const Signature replayed = sig;  // copied by an adversary
  EXPECT_TRUE(auth.verify(replayed, 1, "v=1,view=3"));
  EXPECT_FALSE(auth.verify(replayed, 1, "v=2,view=3"));
}

}  // namespace
}  // namespace rqs::sim
