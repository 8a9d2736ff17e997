// Pinned executions of the retransmission layer.
//
// Every run here enables RetryPolicy on a hand-built cluster and compares
// the outcome to values recorded once: the simulated end time, the number
// of delivered messages, every process's digest_state, the six retry
// counters (write/read retransmit and failover, propose retransmit and
// give-up) and the digest of the full trace (every send, delivery and
// timer firing, with its time and TimerId). Any change to the retry path
// that arms timers in another order, or changes a jitter salt, a
// retransmission target set or an attempt count, moves at least one of
// these numbers. (Moving a Timer::arm across a send_all, or a cancel
// across an arm, leaves every execution identical: timers and deliveries
// sit in separate phases of the event order, and a cancel frees no timer
// slot.)
//
// The clusters are built directly (no scenario generator), so the values
// depend only on the network's counter-hash loss streams and the
// RetryPolicy jitter — not on any std::*_distribution.
//
// RetryBackoffTest checks the backoff ladder itself over every attempt a
// retry-forever policy (max_attempts = 0) can reach.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "consensus/harness.hpp"
#include "core/constructions.hpp"
#include "obs/observer.hpp"
#include "storage/harness.hpp"

namespace rqs {
namespace {

constexpr sim::SimTime kDelta = sim::kDefaultDelta;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 14;  // never wraps here

constexpr std::array<const char*, 6> kRetryCounters = {
    "storage.write.retransmit",     "storage.write.failover",
    "storage.read.retransmit",      "storage.read.failover",
    "consensus.propose.retransmit", "consensus.propose.giveup",
};

struct Pinned {
  sim::SimTime end_time{0};
  std::uint64_t delivered{0};
  std::vector<std::uint64_t> digests;  // one per process, fixed order
  std::array<std::uint64_t, 6> counters{};
  std::uint64_t trace{0};
};

std::string to_cpp(const Pinned& p) {
  std::ostringstream os;
  os << "{" << p.end_time << ", " << p.delivered << ",\n {";
  for (std::size_t i = 0; i < p.digests.size(); ++i) {
    os << (i ? ", " : "") << "0x" << std::hex << p.digests[i] << "ull" << std::dec;
  }
  os << "},\n {";
  for (std::size_t i = 0; i < p.counters.size(); ++i) {
    os << (i ? ", " : "") << p.counters[i];
  }
  os << "},\n 0x" << std::hex << p.trace << "ull}";
  return os.str();
}

void expect_pinned(const Pinned& got, const Pinned& want) {
  EXPECT_EQ(got.end_time, want.end_time);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.digests, want.digests);
  EXPECT_EQ(got.counters, want.counters);
  EXPECT_EQ(got.trace, want.trace);
  if (::testing::Test::HasFailure()) ADD_FAILURE() << "measured: " << to_cpp(got);
}

std::uint64_t digest_of(const sim::Process& p) {
  Fnv64 h;
  p.digest_state(h);
  return h.digest();
}

RetryPolicy::Config retry(std::uint32_t max_attempts, std::uint64_t seed) {
  RetryPolicy::Config cfg;
  cfg.enabled = true;
  cfg.max_attempts = max_attempts;
  cfg.seed = seed;
  return cfg;
}

/// Steps `sim` until `done()` holds or `deltas` Deltas pass.
bool run_until(sim::Simulation& sim, const std::function<bool()>& done,
               sim::SimTime deltas) {
  const sim::SimTime deadline = sim.now() + deltas * sim.delta();
  while (!done() && sim.now() <= deadline && sim.step()) {
  }
  return done();
}

Pinned capture(storage::StorageCluster& c, const obs::Observer& ob) {
  Pinned p;
  p.end_time = c.sim().now();
  p.delivered = c.sim().messages_delivered();
  p.digests.push_back(digest_of(c.writer()));
  for (std::size_t i = 0; i < c.reader_count(); ++i) {
    p.digests.push_back(digest_of(c.reader(i)));
  }
  for (const ProcessId s : c.server_set()) p.digests.push_back(digest_of(c.server(s)));
  const auto snap = ob.snapshot();
  for (std::size_t i = 0; i < kRetryCounters.size(); ++i) {
    p.counters[i] = snap.counter(kRetryCounters[i]);
  }
  p.trace = ob.events_digest();
  return p;
}

Pinned capture(consensus::ConsensusCluster& c, std::size_t proposers,
               std::size_t learners, const obs::Observer& ob) {
  Pinned p;
  p.end_time = c.sim().now();
  p.delivered = c.sim().messages_delivered();
  for (std::size_t i = 0; i < proposers; ++i) p.digests.push_back(digest_of(c.proposer(i)));
  for (const ProcessId a : c.config().acceptors) p.digests.push_back(digest_of(c.acceptor(a)));
  for (std::size_t i = 0; i < learners; ++i) p.digests.push_back(digest_of(c.learner(i)));
  const auto snap = ob.snapshot();
  for (std::size_t i = 0; i < kRetryCounters.size(); ++i) {
    p.counters[i] = snap.counter(kRetryCounters[i]);
  }
  p.trace = ob.events_digest();
  return p;
}

TEST(RetryPinnedTest, WriteBlackout) {
  storage::StorageClusterConfig cfg;
  cfg.reader_count = 1;
  cfg.retry = retry(/*max_attempts=*/3, /*seed=*/1);
  storage::StorageCluster c(make_fig1_fast5(), cfg);
  obs::Observer ob(kTraceCapacity);
  c.sim().set_observer(&ob);
  c.network().set_loss(1.0, 42);
  c.async_write(5);
  c.sim().run(120 * kDelta);
  EXPECT_FALSE(c.write_done());
  c.network().set_loss(0.0, 42);
  ASSERT_TRUE(run_until(c.sim(), [&] { return c.write_done(); }, 400));
  expect_pinned(capture(c, ob),
                {143690, 10,
                 {0x35a40c5ac5e8303bull, 0xa97392ab3227f9c1ull, 0xb4e4a73c23ceada0ull,
                  0xb4e4a73c23ceada0ull, 0xb4e4a73c23ceada0ull, 0xb4e4a73c23ceada0ull,
                  0xb4e4a73c23ceada0ull},
                 {6, 2, 0, 0, 0, 0},
                 0x64f7adb3457872d9ull});
}

TEST(RetryPinnedTest, ReadBlackout) {
  storage::StorageClusterConfig cfg;
  cfg.reader_count = 1;
  cfg.retry = retry(/*max_attempts=*/3, /*seed=*/2);
  storage::StorageCluster c(make_fig1_fast5(), cfg);
  obs::Observer ob(kTraceCapacity);
  c.sim().set_observer(&ob);
  c.blocking_write(9);
  c.network().set_loss(1.0, 7);
  c.async_read(0);
  c.sim().run(c.sim().now() + 120 * kDelta);
  EXPECT_FALSE(c.read_done(0));
  c.network().set_loss(0.0, 7);
  ASSERT_TRUE(run_until(c.sim(), [&] { return c.read_done(0); }, 400));
  EXPECT_EQ(c.last_read_value(0), 9);
  expect_pinned(capture(c, ob),
                {143550, 38,
                 {0xb66e16097e91f07bull, 0x5bf5842749e6e902ull, 0xaac799a8176ef7e4ull,
                  0xaac799a8176ef7e4ull, 0xaac799a8176ef7e4ull, 0xaac799a8176ef7e4ull,
                  0xaac799a8176ef7e4ull},
                 {0, 0, 6, 2, 0, 0},
                 0xf426d2d0fc060560ull});
}

TEST(RetryPinnedTest, ProposeBlackout) {
  consensus::ClusterConfig cfg;
  cfg.proposer_count = 1;
  cfg.learner_count = 2;
  cfg.retry = retry(/*max_attempts=*/0, /*seed=*/1);
  consensus::ConsensusCluster c(make_3t1_instantiation(1), cfg);
  obs::Observer ob(kTraceCapacity);
  c.sim().set_observer(&ob);
  c.network().set_loss(1.0, 3);
  c.propose(0, 42);
  c.sim().run(50 * kDelta);
  EXPECT_FALSE(c.learner(0).learned());
  c.network().set_loss(0.0, 3);
  ASSERT_TRUE(c.run_until_learned(3000));
  EXPECT_EQ(c.agreed_value(), std::optional<Value>{42});
  c.sim().run(c.sim().now() + 50 * kDelta);
  expect_pinned(capture(c, 1, 2, ob),
                {104279, 260,
                 {0x6d6701bfe84879e8ull, 0x271ca89a8bcf5c4ull, 0x271ca89a8bcf5c4ull,
                  0x271ca89a8bcf5c4ull, 0x271ca89a8bcf5c4ull, 0x5d934bd918ee2645ull,
                  0x5d934bd918ee2645ull},
                 {0, 0, 0, 0, 5, 0},
                 0x97246b1304fb824aull});
}

TEST(RetryPinnedTest, GiveUpThenRePropose) {
  consensus::ClusterConfig cfg;
  cfg.proposer_count = 1;
  cfg.learner_count = 1;
  cfg.retry = retry(/*max_attempts=*/4, /*seed=*/1);
  consensus::ConsensusCluster c(make_3t1_instantiation(1), cfg);
  obs::Observer ob(kTraceCapacity);
  c.sim().set_observer(&ob);
  c.network().set_loss(1.0, 5);
  c.propose(0, 8);
  c.sim().run(200 * kDelta);
  EXPECT_FALSE(c.learner(0).learned());
  c.network().set_loss(0.0, 5);
  c.propose(0, 8);
  ASSERT_TRUE(c.run_until_learned(3000));
  EXPECT_EQ(c.agreed_value(), std::optional<Value>{8});
  c.sim().run(c.sim().now() + 50 * kDelta);
  expect_pinned(capture(c, 1, 1, ob),
                {215194, 212,
                 {0xd1cacf1ac477f8aull, 0x7ec37e76bae4eb99ull, 0x7ec37e76bae4eb99ull,
                  0x7ec37e76bae4eb99ull, 0x7ec37e76bae4eb99ull, 0x7bb72772ba96ee05ull},
                 {0, 0, 0, 0, 5, 1},
                 0x136e48240643bfb2ull});
}

/// Six write+read pairs on `rqs` under a steady lossy channel.
Pinned lossy_pairs(RefinedQuorumSystem rqs, double loss, std::uint64_t loss_seed,
                   std::uint64_t retry_seed) {
  storage::StorageClusterConfig cfg;
  cfg.reader_count = 1;
  cfg.retry = retry(/*max_attempts=*/2, retry_seed);
  storage::StorageCluster c(std::move(rqs), cfg);
  obs::Observer ob(kTraceCapacity);
  c.sim().set_observer(&ob);
  c.network().set_loss(loss, loss_seed);
  for (Value v = 1; v <= 6; ++v) {
    c.async_write(v);
    EXPECT_TRUE(run_until(c.sim(), [&] { return c.write_done(); }, 2000));
    c.async_read(0);
    EXPECT_TRUE(run_until(c.sim(), [&] { return c.read_done(0); }, 2000));
    EXPECT_EQ(c.last_read_value(0), v);
  }
  EXPECT_TRUE(c.checker().check().atomic);
  return capture(c, ob);
}

TEST(RetryPinnedTest, LossyWriteReadPairsFast5) {
  expect_pinned(lossy_pairs(make_fig1_fast5(), 0.3, 11, 4),
                {131669, 198,
                 {0xbb40c956d1bf3eeaull, 0x264ca5086d8c8982ull, 0x2ab9d7a43adef324ull,
                  0x3b1eeed891c49fe2ull, 0x3b1eeed891c49fe2ull, 0x3b1eeed891c49fe2ull,
                  0x2ab9d7a43adef324ull},
                 {11, 0, 4, 0, 0, 0},
                 0xe1599b1c86147d8bull});
}

TEST(RetryPinnedTest, LossyWriteReadPairs3t1) {
  expect_pinned(lossy_pairs(make_3t1_instantiation(1), 0.4, 13, 5),
                {428403, 248,
                 {0x9feea4c0f48808aeull, 0x781d2e0826f9f809ull, 0x68b2a89f2fc8f625ull,
                  0x68b2a89f2fc8f625ull, 0x9061d44dba1dea03ull, 0x68b2a89f2fc8f625ull},
                 {26, 5, 11, 1, 0, 0},
                 0xd468121bf253ac7full});
}

TEST(RetryBackoffTest, EveryAttemptStaysOnItsBackoffStep) {
  // delay(a) = min(base * 2^(a-1), 8 * base) + jitter, jitter in [0, base),
  // for every attempt — including those past the point where base << (a-1)
  // no longer fits in 64 bits.
  std::vector<std::uint32_t> attempts;
  for (std::uint32_t a = 1; a <= 10'000; ++a) attempts.push_back(a);
  attempts.push_back(std::numeric_limits<std::uint32_t>::max());
  for (const sim::SimTime base : {sim::SimTime{1}, 4 * kDelta, 8 * kDelta}) {
    RetryPolicy::Config cfg;
    cfg.enabled = true;
    cfg.base_delay = base;
    std::vector<std::uint32_t> off_step;
    for (const std::uint32_t a : attempts) {
      const sim::SimTime step = a <= 3 ? base << (a - 1) : 8 * base;
      const sim::SimTime d = RetryPolicy::delay(cfg, std::uint64_t{30} << 32, a);
      if (d < step || d >= step + base) off_step.push_back(a);
    }
    EXPECT_TRUE(off_step.empty())
        << "base " << base << ": " << off_step.size()
        << " attempts off their step, first at attempt " << off_step.front();
  }
}

}  // namespace
}  // namespace rqs
