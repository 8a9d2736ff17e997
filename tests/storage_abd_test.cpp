// Tests for the ABD baseline: correctness and its fixed 1-round-write /
// 2-round-read latency profile (the reference point the RQS algorithm
// beats in the best case).
#include <gtest/gtest.h>

#include "storage/abd.hpp"
#include "storage/harness.hpp"
#include "storage/spec.hpp"

namespace rqs::storage {
namespace {

class AbdHarness {
 public:
  explicit AbdHarness(std::size_t n, std::size_t readers = 1) : servers_set_(ProcessSet::universe(n)) {
    for (ProcessId id = 0; id < n; ++id) {
      servers_.push_back(std::make_unique<AbdServer>(sim_, id));
    }
    writer_ = std::make_unique<AbdWriter>(sim_, 40, servers_set_);
    for (std::size_t i = 0; i < readers; ++i) {
      readers_.push_back(std::make_unique<AbdReader>(
          sim_, 41 + static_cast<ProcessId>(i), servers_set_));
    }
  }

  void write(Value v) {
    bool done = false;
    const auto invoked = sim_.now();
    writer_->write(v, [&] { done = true; });
    ASSERT_TRUE(StorageCluster::drive(sim_, [&] { return done; }));
    checker_.add_write(invoked, sim_.now(), v);
  }

  Value read(std::size_t i = 0) {
    bool done = false;
    Value out = kBottom;
    const auto invoked = sim_.now();
    readers_[i]->read([&](Value v) {
      done = true;
      out = v;
    });
    EXPECT_TRUE(StorageCluster::drive(sim_, [&] { return done; }));
    checker_.add_read(invoked, sim_.now(), out);
    return out;
  }

  sim::Simulation& sim() { return sim_; }
  AtomicityChecker& checker() { return checker_; }

 private:
  sim::Simulation sim_;
  ProcessSet servers_set_;
  std::vector<std::unique_ptr<AbdServer>> servers_;
  std::unique_ptr<AbdWriter> writer_;
  std::vector<std::unique_ptr<AbdReader>> readers_;
  AtomicityChecker checker_;
};

TEST(AbdTest, ReadAfterWrite) {
  AbdHarness h(5);
  h.write(3);
  EXPECT_EQ(h.read(), 3);
  EXPECT_TRUE(h.checker().check().atomic);
}

TEST(AbdTest, InitialReadIsBottom) {
  AbdHarness h(3);
  EXPECT_TRUE(is_bottom(h.read()));
}

TEST(AbdTest, ToleratesMinorityCrashes) {
  AbdHarness h(5);
  h.sim().crash(0);
  h.sim().crash(1);
  h.write(8);
  EXPECT_EQ(h.read(), 8);
  EXPECT_TRUE(h.checker().check().atomic);
}

TEST(AbdTest, SequentialHistoryIsAtomic) {
  AbdHarness h(7, 2);
  for (Value v = 1; v <= 10; ++v) {
    h.write(v);
    EXPECT_EQ(h.read(0), v);
    EXPECT_EQ(h.read(1), v);
  }
  EXPECT_TRUE(h.checker().check().atomic);
}

TEST(AbdTest, WriteIsOneRoundReadIsTwoRounds) {
  // ABD's latency profile is fixed: write = 1 round (2 message delays),
  // read = 2 rounds (4 message delays), regardless of how many servers
  // are reachable. Verified via virtual time with delta-delay links.
  AbdHarness h(5);
  const auto t0 = h.sim().now();
  h.write(1);
  EXPECT_EQ(h.sim().now() - t0, 2 * sim::kDefaultDelta);  // 1 round
  const auto t1 = h.sim().now();
  h.read();
  EXPECT_EQ(h.sim().now() - t1, 4 * sim::kDefaultDelta);  // 2 rounds
}

TEST(AbdTest, WritebackPropagatesToLaggards) {
  AbdHarness h(3);
  h.write(5);
  h.read();
  // After the read's writeback every live server holds the value.
  // (Write already reached a majority; the writeback re-sends to all.)
  h.sim().run();
  EXPECT_EQ(h.read(), 5);
}

}  // namespace
}  // namespace rqs::storage
