// Reproduction of Figure 4 / Example 7: the executions ex1..ex6 over the
// six-server general-adversary system that motivate Property 3's per-B
// disjunction.
//
// Paper's server s_i is process i-1:
//   B maximal: {s1,s2} = {0,1}, {s3,s4} = {2,3}, {s2,s4} = {1,3}
//   Q1 = {1,3,4,5}, Q2 = {0,1,2,3,4}, Q2' = {0,1,2,3,5}.
#include <gtest/gtest.h>

#include "core/constructions.hpp"
#include "sim/network.hpp"
#include "storage/harness.hpp"

namespace rqs::storage {
namespace {

constexpr ProcessId kS1 = 0, kS2 = 1, kS3 = 2, kS5 = 4, kS6 = 5;

TEST(Fig4Test, Ex1SynchronousWriteCompletesInOneRound) {
  // ex1: write(1) accesses class 1 quorum Q1 (s1, s3 unreachable).
  StorageCluster cluster(make_example7(), {.reader_count = 0});
  cluster.network().block(ProcessSet{kWriterId}, ProcessSet{kS1, kS3});
  cluster.async_write(1);
  cluster.sim().run(cluster.sim().now() + 20 * sim::kDefaultDelta);
  ASSERT_TRUE(cluster.write_done());
  EXPECT_EQ(cluster.writer().last_write_rounds(), 1u);
}

TEST(Fig4Test, Ex2ReadAfterFastWriteTakesTwoRounds) {
  // ex2: wr completes in one round via Q1 (s1, s3 correct but unreached);
  // read rd via Q2 must return 1 after 2 rounds of communication.
  StorageCluster cluster(make_example7(), {.reader_count = 1});
  cluster.network().block(ProcessSet{kWriterId}, ProcessSet{kS1, kS3});
  cluster.async_write(1);
  cluster.sim().run(cluster.sim().now() + 20 * sim::kDefaultDelta);
  ASSERT_TRUE(cluster.write_done());

  // rd communicates with Q2 = {0,1,2,3,4} only (s6 delayed).
  cluster.network().block(ProcessSet{kFirstReaderId}, ProcessSet{kS6});
  cluster.network().block(ProcessSet{kS6}, ProcessSet{kFirstReaderId});
  const auto rd = cluster.blocking_read(0);
  EXPECT_EQ(rd.value, 1);
  EXPECT_EQ(rd.rounds, 2u);
  EXPECT_TRUE(cluster.checker().check().atomic);
}

TEST(Fig4Test, Ex3ConcurrentSlowWriteIndistinguishable) {
  // ex3: wr is slow and reaches nobody yet; a previous reader writeback
  // situation is emulated by the writer reaching exactly Q1 n Q2 = {1,3,4}
  // in round 1 — rd cannot distinguish this from ex2 and still returns 1
  // in 2 rounds after writing the value back.
  StorageCluster cluster(make_example7(), {.reader_count = 2});
  cluster.network().block(ProcessSet{kWriterId},
                          ProcessSet{kS1, kS3, kS6});  // reaches {1,3,4} only
  cluster.async_write(1);
  cluster.sim().run(cluster.sim().now() + 6 * sim::kDefaultDelta);
  EXPECT_FALSE(cluster.write_done());  // wr is incomplete / slow

  cluster.network().block(ProcessSet{kFirstReaderId}, ProcessSet{kS6});
  cluster.network().block(ProcessSet{kS6}, ProcessSet{kFirstReaderId});
  cluster.async_read(0);
  cluster.sim().run(cluster.sim().now() + 40 * sim::kDefaultDelta);
  ASSERT_TRUE(cluster.read_done(0));
  EXPECT_EQ(cluster.last_read_value(0), 1);
  EXPECT_EQ(cluster.reader(0).last_read_rounds(), 2u);
}

TEST(Fig4Test, Ex4ByzantineForgettersCannotHideTheValue) {
  // ex4: after rd's round-2 writeback planted <1, {Q2}> at Q2, s5 crashes
  // and B12 = {s1,s2} turn Byzantine, "forgetting" rd's writeback (s1
  // reports its pre-writeback state, s2 reports only the writer's round 1
  // message). Reader r2, talking to Q2' = {0,1,2,3,5}, must still return 1
  // — valid3 (P3b with witness s2) and the safe() support {s2,s3,s4} give
  // it just enough information.
  // s1 is Byzantine and denies everything; s2 stays benign but the
  // writeback is blocked from reaching it, so it reports only the writer's
  // round 1 message — together this is exactly the ex4 view.
  StorageCluster cluster(make_example7(),
                         {.reader_count = 2, .byzantine = ProcessSet{kS1},
                          .forge = ByzantineStorageServer::forget_everything()});

  // wr reaches {1,3,4} in round 1 and stalls (as in ex3).
  cluster.network().block(ProcessSet{kWriterId}, ProcessSet{kS1, kS3, kS6});
  cluster.async_write(1);
  cluster.sim().run(cluster.sim().now() + 6 * sim::kDefaultDelta);

  // rd by r1 over Q2, with its writeback blocked from reaching s1 and s2:
  // only s3, s4 (and s5) store <1, {Q2}>.
  cluster.network().block(ProcessSet{kFirstReaderId}, ProcessSet{kS6});
  cluster.network().block(ProcessSet{kS6}, ProcessSet{kFirstReaderId});
  // Drop only r1's writeback (wr) messages to s2: its rd messages still
  // flow, so the collect round completes while s2 misses the writeback.
  const std::size_t wb_block = cluster.network().add_rule(
      [](ProcessId from, ProcessId to, sim::SimTime,
         const sim::Message& m) -> std::optional<std::optional<sim::SimTime>> {
        if (from == kFirstReaderId && to == kS2 &&
            sim::msg_cast<WrMsg>(m) != nullptr) {
          return std::optional<sim::SimTime>{};  // drop
        }
        return std::nullopt;
      });
  cluster.async_read(0);
  cluster.sim().run(cluster.sim().now() + 40 * sim::kDefaultDelta);
  // rd itself may or may not complete (its writeback is partially
  // blocked); what matters is the state it planted at s3, s4.
  cluster.network().remove_rule(wb_block);

  // ex4 proper: s5 crashes; r2 reads from Q2' = {0,1,2,3,5}.
  cluster.crash(kS5);
  cluster.network().block(ProcessSet{kFirstReaderId + 1}, ProcessSet{kS5});
  cluster.async_read(1);
  cluster.sim().run(cluster.sim().now() + 60 * sim::kDefaultDelta);
  ASSERT_TRUE(cluster.read_done(1));
  EXPECT_EQ(cluster.last_read_value(1), 1);
}

TEST(Fig4Test, Ex6FabricatedValueIsNeverReturned) {
  // ex6: there is no write at all; B34 = {s3,s4} are Byzantine and
  // fabricate <1, {Q2}> as if a writeback had happened. r2 must not
  // return 1: the support {s3,s4} is an adversary element, so safe()
  // never holds and the read cannot select the fabricated pair.
  StorageCluster cluster(make_example7(),
                         {.reader_count = 1,
                          .byzantine = ProcessSet{2, 3},
                          .forge = [](const ServerHistory&, ProcessId) {
                            ServerHistory forged;
                            HistorySlot& s = forged.slot(1, 1);
                            s.pair = TsValue{1, 1};
                            s.sets = {1};  // Q2's quorum id in make_example7
                            return forged;
                          }});
  cluster.crash(kS5);
  cluster.network().block(ProcessSet{kFirstReaderId}, ProcessSet{kS5});
  cluster.async_read(0);
  cluster.sim().run(cluster.sim().now() + 60 * sim::kDefaultDelta);
  if (cluster.read_done(0)) {
    // If the read terminated it must have returned bottom, never the
    // fabricated value (termination is not guaranteed here: no quorum of
    // exclusively correct servers exists in ex6).
    EXPECT_TRUE(is_bottom(cluster.last_read_value(0)));
  }
}

TEST(Fig4Test, Ex5ViewSufficesBecauseOfP3b) {
  // ex5 vs ex6 distinguishability: in ex5 the genuine support of the value
  // includes s2 (in Q1 n Q2 n Q2' \ B34), making the support basic; in ex6
  // the fabricated support {s3,s4} is an adversary element. The paper's
  // point: exactly Property 3(b) guarantees the distinguishing server.
  const RefinedQuorumSystem rqs = make_example7();
  const ProcessSet support_ex5{1, 2, 3};  // s2, s3, s4
  const ProcessSet support_ex6{2, 3};     // s3, s4 only
  EXPECT_TRUE(rqs.adversary().is_basic(support_ex5));
  EXPECT_FALSE(rqs.adversary().is_basic(support_ex6));
  // The distinguishing server is exactly the P3b witness:
  const ProcessSet witness = (ProcessSet{1, 3, 4, 5} & ProcessSet{0, 1, 2, 3, 4} &
                              ProcessSet{0, 1, 2, 3, 5}) -
                             ProcessSet{2, 3};
  EXPECT_EQ(witness, ProcessSet{1});
}

}  // namespace
}  // namespace rqs::storage
