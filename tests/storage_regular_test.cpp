// Tests for the regular-semantics ablation (Section 6): the collect part
// of the read algorithm alone implements a *regular* storage — reads
// return the last complete write or a concurrent one, always in a single
// round in the best case — but without the writeback, new-old read
// inversions are possible, separating regular from atomic semantics.
#include <gtest/gtest.h>

#include "core/constructions.hpp"
#include "sim/network.hpp"
#include "storage/harness.hpp"

namespace rqs::storage {
namespace {

/// Harness with regular-mode readers (built directly; StorageCluster's
/// readers are atomic).
class RegularHarness {
 public:
  explicit RegularHarness(RefinedQuorumSystem rqs, std::size_t readers = 2)
      : rqs_(std::move(rqs)),
        servers_set_(ProcessSet::universe(rqs_.universe_size())) {
    for (ProcessId id = 0; id < rqs_.universe_size(); ++id) {
      servers_.push_back(std::make_unique<RqsStorageServer>(sim_, id));
    }
    writer_ = std::make_unique<RqsWriter>(sim_, kWriterId, rqs_, servers_set_);
    for (std::size_t i = 0; i < readers; ++i) {
      readers_.push_back(std::make_unique<RqsReader>(
          sim_, kFirstReaderId + static_cast<ProcessId>(i), rqs_, servers_set_,
          RqsReader::Mode::kRegular));
    }
  }

  void blocking_write(Value v) {
    async_write(v);
    ASSERT_TRUE(StorageCluster::drive(sim_, [this] { return write_done_; }));
  }

  void async_write(Value v) {
    write_done_ = false;
    writer_->write(v, [this] { write_done_ = true; });
  }
  [[nodiscard]] bool write_done() const { return write_done_; }

  struct ReadOutcome {
    Value value{kBottom};
    RoundNumber rounds{0};
    bool done{false};
  };
  ReadOutcome read(std::size_t i, sim::SimTime budget_deltas = 100) {
    ReadOutcome out;
    readers_[i]->read([&](Value v) {
      out.done = true;
      out.value = v;
    });
    sim_.run_until([&] { return out.done; },
                   sim_.now() + budget_deltas * sim_.delta());
    out.rounds = readers_[i]->last_read_rounds();
    return out;
  }

  sim::Simulation& sim() { return sim_; }
  sim::Network& net() { return sim_.network(); }

 private:
  sim::Simulation sim_;
  RefinedQuorumSystem rqs_;
  ProcessSet servers_set_;
  std::vector<std::unique_ptr<RqsStorageServer>> servers_;
  std::unique_ptr<RqsWriter> writer_;
  std::vector<std::unique_ptr<RqsReader>> readers_;
  bool write_done_{true};
};

TEST(RegularStorageTest, SingleRoundReadsAlways) {
  // Regular reads complete in one round whenever the collect loop finds a
  // safe high candidate in round 1 — with any all-correct quorum, always.
  RegularHarness h(make_fig1_fast5());
  h.blocking_write(1);
  const auto rd = h.read(0);
  ASSERT_TRUE(rd.done);
  EXPECT_EQ(rd.value, 1);
  EXPECT_EQ(rd.rounds, 1u);
}

TEST(RegularStorageTest, SingleRoundEvenWithCrashes) {
  RegularHarness h(make_fig1_fast5());
  h.sim().crash(3);
  h.sim().crash(4);
  h.blocking_write(2);
  const auto rd = h.read(0);
  ASSERT_TRUE(rd.done);
  EXPECT_EQ(rd.value, 2);
  EXPECT_EQ(rd.rounds, 1u);  // the atomic reader would need 2 rounds here
}

TEST(RegularStorageTest, ReturnsLastCompleteWrite) {
  RegularHarness h(make_3t1_instantiation(1));
  for (Value v = 1; v <= 5; ++v) {
    h.blocking_write(v * 10);
    const auto rd = h.read(0);
    ASSERT_TRUE(rd.done);
    EXPECT_EQ(rd.value, v * 10);
  }
}

TEST(RegularStorageTest, NewOldInversionIsPossible) {
  // The separating schedule: an incomplete write is visible to rd1 (which
  // returns the new value WITHOUT writing it back) but invisible to rd2
  // (which returns the old value): a new-old inversion, allowed by
  // regularity, forbidden by atomicity. The atomic reader passes the same
  // schedule (tests/storage_fig1_test.cpp); the regular one must not.
  RegularHarness h(make_fig1_fast5());
  h.blocking_write(1);
  // Incomplete write of 2: it reaches only server 2 and never completes.
  h.net().block(ProcessSet{kWriterId}, ProcessSet{0, 1, 3, 4});
  h.async_write(2);
  h.sim().run(h.sim().now() + 6 * sim::kDefaultDelta);
  EXPECT_FALSE(h.write_done());

  // rd1 talks to quorum {2,3,4}: it sees 2 at server 2, which is safe
  // (crash-only adversary) and the highest candidate — and returns it
  // with no writeback.
  h.net().block(ProcessSet{kFirstReaderId}, ProcessSet{0, 1});
  h.net().block(ProcessSet{0, 1}, ProcessSet{kFirstReaderId});
  const auto rd1 = h.read(0);
  ASSERT_TRUE(rd1.done);
  EXPECT_EQ(rd1.value, 2);
  EXPECT_EQ(rd1.rounds, 1u);

  // rd2 talks to quorum {0,1,3}: server 2's value is invisible; it
  // returns the old value 1. rd1 preceded rd2: a new-old inversion.
  const ProcessId r2 = kFirstReaderId + 1;
  h.net().block(ProcessSet{r2}, ProcessSet{2, 4});
  h.net().block(ProcessSet{2, 4}, ProcessSet{r2});
  const auto rd2 = h.read(1);
  ASSERT_TRUE(rd2.done);
  EXPECT_EQ(rd2.value, 1);  // inversion: regular but not atomic
}

TEST(RegularStorageTest, AtomicModeForbidsTheInversionSchedule) {
  // Control: the atomic reader under the same schedule performs the
  // writeback, so the second read sees the new value.
  StorageCluster cluster(make_fig1_fast5(), {.reader_count = 2});
  cluster.blocking_write(1);
  cluster.network().block(ProcessSet{kWriterId}, ProcessSet{0, 1, 3, 4});
  cluster.async_write(2);
  cluster.sim().run(cluster.sim().now() + 6 * sim::kDefaultDelta);
  EXPECT_FALSE(cluster.write_done());

  cluster.network().block(ProcessSet{kFirstReaderId}, ProcessSet{0, 1});
  cluster.network().block(ProcessSet{0, 1}, ProcessSet{kFirstReaderId});
  cluster.async_read(0);
  cluster.sim().run(cluster.sim().now() + 40 * sim::kDefaultDelta);
  ASSERT_TRUE(cluster.read_done(0));
  EXPECT_EQ(cluster.last_read_value(0), 2);

  const ProcessId r2 = kFirstReaderId + 1;
  cluster.network().block(ProcessSet{r2}, ProcessSet{2, 4});
  cluster.network().block(ProcessSet{2, 4}, ProcessSet{r2});
  cluster.async_read(1);
  cluster.sim().run(cluster.sim().now() + 40 * sim::kDefaultDelta);
  ASSERT_TRUE(cluster.read_done(1));
  EXPECT_EQ(cluster.last_read_value(1), 2);  // no inversion
}

}  // namespace
}  // namespace rqs::storage
