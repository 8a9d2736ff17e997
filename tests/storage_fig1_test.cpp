// Reproduction of Section 1.2 / Figure 1: with 5 servers and t = 2, a
// greedy algorithm that treats 3-subsets as fast (class 1) quorums
// violates atomicity under the schedule ex1..ex4; the repaired system
// (4-subsets fast) survives the same schedule.
//
// We drive the *same* RQS storage algorithm over the broken and the valid
// quorum annotations: the algorithm trusts the classes it is given, so the
// broken annotation reproduces exactly the paper's counterexample.
#include <gtest/gtest.h>

#include "core/constructions.hpp"
#include "sim/network.hpp"
#include "storage/harness.hpp"

namespace rqs::storage {
namespace {

// The paper's server i is process i-1.
constexpr ProcessId kS1 = 0, kS2 = 1, kS3 = 2, kS4 = 3, kS5 = 4;

// Runs the Figure 1 schedule: an incomplete write reaches only server s3
// (ex3), reader r1 reads from Q2 = {s3,s4,s5}, then s3 and s5 fail and
// reader r2 reads from Q3 = {s1,s2,s4} (ex4). Returns what the two reads
// returned and how many rounds r1 took.
struct Fig1Outcome {
  Value rd1{kBottom};
  RoundNumber rd1_rounds{0};
  Value rd2{kBottom};
};

Fig1Outcome run_fig1_schedule(RefinedQuorumSystem rqs) {
  StorageCluster cluster(std::move(rqs), {.reader_count = 2});
  auto& net = cluster.network();

  // ex3: the writer's messages reach only s3; the write stays incomplete.
  net.block(ProcessSet{kWriterId}, ProcessSet{kS1, kS2, kS4, kS5});
  cluster.async_write(1);
  cluster.sim().run(/*deadline=*/10 * sim::kDefaultDelta);

  // Reader r1 can only exchange messages with Q2 = {s3, s4, s5}
  // (communication with s1, s2 is delayed / the servers look crashed).
  net.block(ProcessSet{kFirstReaderId}, ProcessSet{kS1, kS2});
  net.block(ProcessSet{kS1, kS2}, ProcessSet{kFirstReaderId});

  Fig1Outcome out;
  cluster.async_read(0);
  cluster.sim().run(cluster.sim().now() + 30 * sim::kDefaultDelta);
  if (!cluster.read_done(0)) return out;  // r1 blocked: no violation possible
  out.rd1 = cluster.last_read_value(0);
  out.rd1_rounds = cluster.reader(0).last_read_rounds();

  // ex4: s3 and s5 crash; r2 reads from the remaining Q3 = {s1,s2,s4}.
  cluster.crash(kS3);
  cluster.crash(kS5);
  cluster.async_read(1);
  cluster.sim().run(cluster.sim().now() + 30 * sim::kDefaultDelta);
  if (cluster.read_done(1)) out.rd2 = cluster.last_read_value(1);
  return out;
}

TEST(Fig1Test, BrokenSystemViolatesAtomicity) {
  // Greedy 3-subset fast quorums: r1 returns 1 after a single round
  // (it cannot distinguish ex3 from ex2), then r2 — which must, by
  // atomicity, also return 1 — returns bottom. Read inversion.
  const Fig1Outcome out = run_fig1_schedule(make_fig1_broken5());
  EXPECT_EQ(out.rd1, 1);
  EXPECT_EQ(out.rd1_rounds, 1u);
  EXPECT_TRUE(is_bottom(out.rd2)) << "rd2 returned " << out.rd2;
}

TEST(Fig1Test, BrokenSystemFailsPropertyCheck) {
  // The library's checker rejects the configuration up front: the greedy
  // system violates Property 2 (Fig. 2(a)).
  const CheckResult r = make_fig1_broken5().check(0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].property, 2);
}

TEST(Fig1Test, ValidSystemSurvivesTheSameSchedule) {
  // With 4-subset class 1 quorums, r1 cannot return after one round from
  // only 3 servers: it performs the guarded writeback, which plants the
  // value at a full quorum before returning — so r2 sees it.
  const Fig1Outcome out = run_fig1_schedule(make_fig1_fast5());
  EXPECT_EQ(out.rd1, 1);
  EXPECT_GE(out.rd1_rounds, 2u);
  EXPECT_EQ(out.rd2, 1);
}

TEST(Fig1Test, ValidSystemFastPathNeedsFourServers) {
  // Sanity on the repaired system: with all five servers reachable both
  // operations are single-round (ex1/ex2 of the introduction's algorithm).
  StorageCluster cluster(make_fig1_fast5(), {.reader_count = 1});
  EXPECT_EQ(cluster.blocking_write(1), 1u);
  const auto rd = cluster.blocking_read(0);
  EXPECT_EQ(rd.value, 1);
  EXPECT_EQ(rd.rounds, 1u);
}

TEST(Fig1Test, ValidSystemWriteDegradesGracefully) {
  // Exactly 3 reachable servers: write needs 2 rounds (the pw/w two-phase
  // write of the introduction's example).
  StorageCluster cluster(make_fig1_fast5(), {.reader_count = 1});
  cluster.network().block(ProcessSet{kWriterId}, ProcessSet{kS4, kS5});
  cluster.async_write(1);
  cluster.sim().run(cluster.sim().now() + 30 * sim::kDefaultDelta);
  ASSERT_TRUE(cluster.write_done());
  EXPECT_EQ(cluster.writer().last_write_rounds(), 2u);
}

}  // namespace
}  // namespace rqs::storage
