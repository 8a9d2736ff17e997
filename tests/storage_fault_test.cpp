// Fault-injection tests for the RQS atomic storage: Byzantine fabrication
// and denial, crashes at every point of the protocol, asynchrony, and
// read/write contention.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/constructions.hpp"
#include "sim/network.hpp"
#include "storage/harness.hpp"

namespace rqs::storage {
namespace {

TEST(StorageFaultTest, FabricatedHighTimestampIsNotReturned) {
  // A Byzantine server invents <99, 666> in slots 1 and 2. The reader must
  // invalidate it (no basic support) and return the genuine value.
  StorageCluster cluster(make_3t1_instantiation(1),
                         {.reader_count = 1, .byzantine = ProcessSet{0},
                          .forge = ByzantineStorageServer::fabricate(TsValue{99, 666})});
  cluster.blocking_write(5);
  const auto rd = cluster.blocking_read(0);
  EXPECT_EQ(rd.value, 5);
  EXPECT_TRUE(cluster.checker().check().atomic);
}

TEST(StorageFaultTest, FabricationBeforeAnyWriteYieldsBottom) {
  StorageCluster cluster(make_3t1_instantiation(1),
                         {.reader_count = 1, .byzantine = ProcessSet{0},
                          .forge = ByzantineStorageServer::fabricate(TsValue{7, 42})});
  const auto rd = cluster.blocking_read(0);
  EXPECT_TRUE(is_bottom(rd.value));
}

TEST(StorageFaultTest, DenialCostsOneExtraRoundNotCorrectness) {
  // A Byzantine server that reports a blank history spoils the class 1
  // best case (the full set is the only class 1 quorum in the 3t+1
  // construction) but a correct class 2 quorum keeps reads at <= 2 rounds.
  StorageCluster cluster(make_3t1_instantiation(1),
                         {.reader_count = 1, .byzantine = ProcessSet{0},
                          .forge = ByzantineStorageServer::forget_everything()});
  cluster.blocking_write(3);
  const auto rd = cluster.blocking_read(0);
  EXPECT_EQ(rd.value, 3);
  EXPECT_LE(rd.rounds, 2u);
  EXPECT_TRUE(cluster.checker().check().atomic);
}

TEST(StorageFaultTest, ByzantineWithLargerSystem) {
  // t = 2 Byzantine servers in a 7-server system.
  StorageCluster cluster(make_3t1_instantiation(2),
                         {.reader_count = 1, .byzantine = ProcessSet{0, 1},
                          .forge = ByzantineStorageServer::fabricate(TsValue{50, -1})});
  for (Value v = 1; v <= 3; ++v) {
    cluster.blocking_write(v);
    EXPECT_EQ(cluster.blocking_read(0).value, v);
  }
  EXPECT_TRUE(cluster.checker().check().atomic);
}

TEST(StorageFaultTest, CrashDuringWriteIsRepairedByReaders) {
  // The writer reaches only part of a quorum and "crashes" (its remaining
  // rounds are blocked). A subsequent read that finds the partial value
  // writes it back; a second read must then agree (no inversion).
  StorageCluster cluster(make_fig1_fast5(), {.reader_count = 2});
  // Round 1 reaches servers {0,1} only — fewer than any quorum, so the
  // write can never complete.
  cluster.network().block(ProcessSet{kWriterId}, ProcessSet{2, 3, 4});
  cluster.async_write(1);
  cluster.sim().run(cluster.sim().now() + 6 * sim::kDefaultDelta);
  EXPECT_FALSE(cluster.write_done());
  cluster.crash(kWriterId);

  const auto rd1 = cluster.blocking_read(0);
  const auto rd2 = cluster.blocking_read(1);
  EXPECT_EQ(rd2.value, rd1.value);  // monotone: no new-old inversion
  if (!is_bottom(rd1.value)) {
    EXPECT_EQ(rd1.value, 1);
  }
}

TEST(StorageFaultTest, ReaderContentionDuringWrite) {
  // A read concurrent with an in-flight write may return the old or the
  // new value; two sequential reads must be monotone. Checked by the
  // atomicity checker over the full history.
  StorageCluster cluster(make_fig1_fast5(), {.reader_count = 2});
  cluster.blocking_write(1);
  // Slow down the writer's messages so the write overlaps the reads.
  cluster.network().fixed_delay(ProcessSet{kWriterId}, ProcessSet::universe(5),
                                5 * sim::kDefaultDelta);
  cluster.async_write(2);
  cluster.async_read(0);
  ASSERT_TRUE(StorageCluster::drive(cluster.sim(), [&] {
    return cluster.write_done() && cluster.read_done(0);
  }));
  const auto rd2 = cluster.blocking_read(1);
  EXPECT_EQ(rd2.value, 2);
  EXPECT_TRUE(cluster.checker().check().atomic)
      << cluster.checker().check().to_string();
}

TEST(StorageFaultTest, AsynchronyDelaysButPreservesAtomicity) {
  // All links slow (3 Delta > the 2 Delta timers): operations take extra
  // rounds/time but remain atomic and live (a correct quorum exists).
  StorageCluster cluster(make_3t1_instantiation(1), {.reader_count = 1});
  cluster.network().set_default_delay(3 * sim::kDefaultDelta);
  for (Value v = 1; v <= 3; ++v) {
    cluster.blocking_write(v);
    EXPECT_EQ(cluster.blocking_read(0).value, v);
  }
  EXPECT_TRUE(cluster.checker().check().atomic);
}

TEST(StorageFaultTest, MixedCrashAndByzantine) {
  // n = 7, t = 2: one Byzantine server plus one crashed server.
  StorageCluster cluster(make_3t1_instantiation(2),
                         {.reader_count = 1, .byzantine = ProcessSet{6},
                          .forge = ByzantineStorageServer::fabricate(TsValue{9, 9})});
  cluster.crash(0);
  cluster.blocking_write(4);
  const auto rd = cluster.blocking_read(0);
  EXPECT_EQ(rd.value, 4);
  EXPECT_TRUE(cluster.checker().check().atomic);
}

TEST(StorageFaultTest, WriterBlockedFromClass1QuorumDegrades) {
  // Example 7: the writer cannot reach s6 (a Q1 member), so no class 1
  // quorum responds; the write must fall back to 2 rounds via Q2/Q2'.
  StorageCluster cluster(make_example7(), {.reader_count = 1});
  cluster.network().block(ProcessSet{kWriterId}, ProcessSet{5});
  cluster.async_write(8);
  cluster.sim().run(cluster.sim().now() + 30 * sim::kDefaultDelta);
  ASSERT_TRUE(cluster.write_done());
  EXPECT_EQ(cluster.writer().last_write_rounds(), 2u);
  EXPECT_EQ(cluster.blocking_read(0).value, 8);
}

TEST(StorageFaultTest, ThirdRoundFallback) {
  // Force the writer into round 3: round 1 sees only a class-3 response
  // set... with make_graded_threshold(7,1,2,1,0): class 2 = miss <= 1,
  // class 3 = miss 2. Blocking two servers leaves only class 3 quorums,
  // so QC'2 stays empty and the write needs all three rounds.
  StorageCluster cluster(make_graded_threshold(7, 1, 2, 1, 0), {.reader_count = 1});
  cluster.network().block(ProcessSet{kWriterId}, ProcessSet{5, 6});
  cluster.async_write(2);
  cluster.sim().run(cluster.sim().now() + 30 * sim::kDefaultDelta);
  ASSERT_TRUE(cluster.write_done());
  EXPECT_EQ(cluster.writer().last_write_rounds(), 3u);
  const auto rd = cluster.blocking_read(0);
  EXPECT_EQ(rd.value, 2);
  EXPECT_TRUE(cluster.checker().check().atomic);
}

TEST(StorageFaultTest, BlockingOpsThrowWhenNoServerAnswers) {
  // With every server crashed the op never completes. Without retry the
  // queue drains first; with retry the client fails over and restarts its
  // round forever, so only the drive's virtual deadline ends it. The
  // blocking calls must say so, not return the previous write's rounds or
  // a bottom read, and not spin.
  for (const bool retry : {false, true}) {
    StorageCluster cluster(
        make_fig1_fast5(),
        {.reader_count = 1, .retry = {.enabled = retry, .max_attempts = 4}});
    EXPECT_EQ(cluster.blocking_write(1), 1u);
    for (ProcessId s = 0; s < 5; ++s) cluster.crash(s);
    const sim::SimTime start = cluster.sim().now();
    EXPECT_THROW(cluster.blocking_write(9), std::runtime_error);
    if (retry) {
      EXPECT_FALSE(cluster.sim().idle());  // the writer is still retrying
      EXPECT_GT(cluster.sim().now(),
                start + StorageCluster::kBlockingDeadlineDeltas *
                            sim::kDefaultDelta);
    }
    EXPECT_THROW(cluster.blocking_read(0), std::runtime_error);
  }
}

}  // namespace
}  // namespace rqs::storage
