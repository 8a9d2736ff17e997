// Best-case behaviour of the RQS atomic storage (Section 3.2): operation
// latencies per available quorum class, sequential reads/writes, and the
// (m, QC_m)-fast claims of Theorem 9 across several quorum systems.
#include <gtest/gtest.h>

#include <vector>

#include "core/constructions.hpp"
#include "storage/harness.hpp"

namespace rqs::storage {
namespace {

TEST(StorageBasicTest, InitialReadReturnsBottom) {
  StorageCluster cluster(make_fig1_fast5(), {.reader_count = 1});
  const auto outcome = cluster.blocking_read(0);
  EXPECT_TRUE(is_bottom(outcome.value));
}

TEST(StorageBasicTest, WriteThenReadBestCaseSingleRound) {
  StorageCluster cluster(make_fig1_fast5(), {.reader_count = 1});
  // All 5 servers up: a class 1 quorum (4-subset) is available.
  EXPECT_EQ(cluster.blocking_write(7), 1u);
  const auto outcome = cluster.blocking_read(0);
  EXPECT_EQ(outcome.value, 7);
  EXPECT_EQ(outcome.rounds, 1u);
}

TEST(StorageBasicTest, SequentialWritesAndReads) {
  StorageCluster cluster(make_fig1_fast5(), {.reader_count = 2});
  for (Value v = 1; v <= 5; ++v) {
    cluster.blocking_write(v * 100);
    EXPECT_EQ(cluster.blocking_read(0).value, v * 100);
    EXPECT_EQ(cluster.blocking_read(1).value, v * 100);
  }
  EXPECT_TRUE(cluster.checker().check().atomic);
}

TEST(StorageBasicTest, TwoCrashesDegradeToClassTwoLatency) {
  StorageCluster cluster(make_fig1_fast5(), {.reader_count = 1});
  cluster.crash(3);
  cluster.crash(4);
  // Only 3 servers alive: class 2 quorums available, class 1 not.
  EXPECT_EQ(cluster.blocking_write(1), 2u);
  const auto outcome = cluster.blocking_read(0);
  EXPECT_EQ(outcome.value, 1);
  EXPECT_LE(outcome.rounds, 2u);
  EXPECT_TRUE(cluster.checker().check().atomic);
}

TEST(StorageBasicTest, OneCrashStillSingleRound) {
  StorageCluster cluster(make_fig1_fast5(), {.reader_count = 1});
  cluster.crash(0);
  EXPECT_EQ(cluster.blocking_write(9), 1u);
  EXPECT_EQ(cluster.blocking_read(0).rounds, 1u);
}

TEST(StorageBasicTest, ThreeTPlusOneBestCase) {
  // n = 4, t = k = 1: class 1 quorum = all servers; with everyone up,
  // writes and reads take a single round.
  StorageCluster cluster(make_3t1_instantiation(1), {.reader_count = 1});
  EXPECT_EQ(cluster.blocking_write(5), 1u);
  const auto outcome = cluster.blocking_read(0);
  EXPECT_EQ(outcome.value, 5);
  EXPECT_EQ(outcome.rounds, 1u);
}

TEST(StorageBasicTest, ThreeTPlusOneCrashDegrades) {
  StorageCluster cluster(make_3t1_instantiation(1), {.reader_count = 1});
  cluster.crash(0);
  // Class 1 (= all 4) unavailable; class 2 quorums (3-subsets) remain.
  const RoundNumber wr = cluster.blocking_write(5);
  EXPECT_EQ(wr, 2u);
  const auto outcome = cluster.blocking_read(0);
  EXPECT_EQ(outcome.value, 5);
  EXPECT_LE(outcome.rounds, 2u);
  EXPECT_TRUE(cluster.checker().check().atomic);
}

TEST(StorageBasicTest, MaskingSystemGivesTwoRoundOps) {
  // Ablation: over a masking quorum system (QC1 empty, QC2 = RQS) there is
  // no 1-round path, but the class 2 machinery still gives 2-round writes
  // and reads in the best case.
  StorageCluster cluster(make_masking(5, 1, 1), {.reader_count = 1});
  EXPECT_EQ(cluster.blocking_write(4), 2u);
  const auto outcome = cluster.blocking_read(0);
  EXPECT_EQ(outcome.value, 4);
  EXPECT_EQ(outcome.rounds, 2u);
  EXPECT_TRUE(cluster.checker().check().atomic);
}

TEST(StorageBasicTest, DisseminatingSystemIsSlowButCorrect) {
  // Ablation: a disseminating system (QC1 = QC2 empty) disables every fast
  // path; the algorithm always runs the full three rounds for writes and
  // collect + two writeback rounds for reads.
  StorageCluster cluster(make_disseminating(5, 1, 1), {.reader_count = 1});
  EXPECT_EQ(cluster.blocking_write(4), 3u);
  const auto outcome = cluster.blocking_read(0);
  EXPECT_EQ(outcome.value, 4);
  EXPECT_EQ(outcome.rounds, 3u);
  EXPECT_TRUE(cluster.checker().check().atomic);
}

TEST(StorageBasicTest, Example7BestCase) {
  StorageCluster cluster(make_example7(), {.reader_count = 1});
  EXPECT_EQ(cluster.blocking_write(11), 1u);  // Q1 = {1,3,4,5} all alive
  const auto outcome = cluster.blocking_read(0);
  EXPECT_EQ(outcome.value, 11);
  EXPECT_EQ(outcome.rounds, 1u);
}

TEST(StorageBasicTest, Example7WithoutClass1Quorum) {
  StorageCluster cluster(make_example7(), {.reader_count = 1});
  cluster.crash(4);  // s5: now only Q2' = {0,1,2,3,5} is fully alive
  const RoundNumber wr = cluster.blocking_write(12);
  EXPECT_EQ(wr, 2u);
  const auto outcome = cluster.blocking_read(0);
  EXPECT_EQ(outcome.value, 12);
  EXPECT_LE(outcome.rounds, 2u);
}

TEST(StorageBasicTest, RoundsNeverExceedThree) {
  // (3, QC3)-fast: any synchronous uncontended op finishes in <= 3 rounds
  // whenever some quorum is fully correct, on every construction we ship.
  const std::vector<RefinedQuorumSystem> systems = {
      make_fig1_fast5(), make_3t1_instantiation(1), make_example7(),
      make_masking(5, 1, 1), make_graded_threshold(7, 1, 2, 1, 0)};
  for (const auto& sys : systems) {
    StorageCluster cluster(sys, {.reader_count = 1});
    EXPECT_LE(cluster.blocking_write(1), 3u);
    const auto outcome = cluster.blocking_read(0);
    EXPECT_EQ(outcome.value, 1);
    EXPECT_LE(outcome.rounds, 3u);
  }
}

TEST(StorageBasicTest, BestCaseMessageComplexity) {
  // Section 5 discusses message complexity; in the best case the costs
  // are linear: a 1-round write is one wr broadcast (n messages) plus n
  // acks; a 1-round read is one rd broadcast plus n history replies.
  StorageCluster cluster(make_fig1_fast5(), {.reader_count = 1});
  cluster.network().reset_counters();
  cluster.blocking_write(1);
  auto by_tag = cluster.network().sent_by_tag();
  EXPECT_EQ(by_tag.at("WR"), 5u);
  EXPECT_EQ(by_tag.at("WR_ACK"), 5u);

  cluster.network().reset_counters();
  cluster.blocking_read(0);
  by_tag = cluster.network().sent_by_tag();
  EXPECT_EQ(by_tag.at("RD"), 5u);
  EXPECT_EQ(by_tag.at("RD_ACK"), 5u);
  EXPECT_EQ(by_tag.count("WR"), 0u);  // no writeback on the fast path
}

TEST(StorageBasicTest, DegradedReadPaysOneWritebackBroadcast) {
  StorageCluster cluster(make_fig1_fast5(), {.reader_count = 1});
  cluster.crash(3);
  cluster.crash(4);
  cluster.blocking_write(1);  // 2 rounds
  cluster.network().reset_counters();
  const auto rd = cluster.blocking_read(0);
  EXPECT_LE(rd.rounds, 2u);
  const auto& by_tag = cluster.network().sent_by_tag();
  EXPECT_EQ(by_tag.at("RD"), 5u);  // rd still broadcast to all (2 crashed)
  if (rd.rounds == 2) {
    EXPECT_EQ(by_tag.at("WR"), 5u);  // exactly one writeback broadcast
  }
}

TEST(StorageBasicTest, TimestampsIncreaseMonotonically) {
  StorageCluster cluster(make_fig1_fast5(), {.reader_count = 1});
  cluster.blocking_write(1);
  EXPECT_EQ(cluster.writer().timestamp(), 1u);
  cluster.blocking_write(2);
  EXPECT_EQ(cluster.writer().timestamp(), 2u);
  EXPECT_EQ(cluster.blocking_read(0).value, 2);
}

TEST(StorageBasicTest, ServerHistoriesFillAfterWrite) {
  StorageCluster cluster(make_fig1_fast5(), {.reader_count = 0});
  cluster.blocking_write(3);
  // After a single-round write, slot 1 of row 1 holds <1, 3> at every
  // server that received the message (all alive here).
  std::size_t holders = 0;
  for (ProcessId id = 0; id < 5; ++id) {
    if (cluster.server(id).history().at(1, 1).pair == (TsValue{1, 3})) ++holders;
  }
  EXPECT_EQ(holders, 5u);
}

TEST(StorageBasicTest, OperationLogNumbersEndpointsInTheOrderTheyHappen) {
  StorageCluster cluster(make_fig1_fast5(), {.reader_count = 1});
  const std::vector<StorageCluster::Operation>& log = cluster.operations();
  cluster.blocking_write(7);
  const sim::SimTime read_at = cluster.sim().now();
  ASSERT_GT(read_at, 0);
  cluster.async_read(0);
  ASSERT_EQ(log.size(), 2u);
  while (!cluster.read_done(0)) {
    // A read's value appears with its response, not before.
    EXPECT_FALSE(log[1].completed());
    EXPECT_EQ(log[1].responded, 0u);
    EXPECT_TRUE(is_bottom(log[1].value));
    ASSERT_TRUE(cluster.sim().step());
  }
  EXPECT_TRUE(log[0].is_write);
  EXPECT_EQ(log[0].key, 0u);
  EXPECT_EQ(log[0].reader, 0u);
  EXPECT_EQ(log[0].invoked_at, 0);
  EXPECT_EQ(log[0].invoked, 1u);
  EXPECT_EQ(log[0].responded, 2u);
  EXPECT_EQ(log[0].value, 7);
  EXPECT_FALSE(log[1].is_write);
  EXPECT_EQ(log[1].invoked_at, read_at);
  EXPECT_EQ(log[1].invoked, 3u);
  EXPECT_EQ(log[1].responded, 4u);
  EXPECT_TRUE(log[1].completed());
  EXPECT_EQ(log[1].value, 7);
  EXPECT_EQ(cluster.endpoints(), 4u);

  // With no server left the write stays pending: invoked, never responded.
  for (ProcessId s = 0; s < 5; ++s) cluster.crash(s);
  cluster.async_write(9);
  cluster.sim().run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[2].invoked, 5u);
  EXPECT_EQ(log[2].responded, 0u);
  EXPECT_FALSE(log[2].completed());
  EXPECT_EQ(log[2].value, 9);
  EXPECT_EQ(cluster.endpoints(), 5u);
}

}  // namespace
}  // namespace rqs::storage
