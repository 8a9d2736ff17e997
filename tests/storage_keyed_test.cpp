// The keyed register space: per-key writer/reader sessions over one server
// fleet, per-key histories and atomicity; the (seq, writer) lexicographic
// timestamp fix for multi-writer collisions; and the writeback-nonce fix
// for cross-operation wr_ack aliasing.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/constructions.hpp"
#include "storage/harness.hpp"

namespace rqs::storage {
namespace {

TEST(KeyedStorageTest, ClientIdLayoutKeepsLegacySingleKeyIds) {
  EXPECT_EQ(writer_client_id(0, 2), kWriterId);
  EXPECT_EQ(reader_client_id(0, 0, 2), kFirstReaderId);
  EXPECT_EQ(reader_client_id(0, 1, 2), kFirstReaderId + 1);
  // Key blocks are contiguous and disjoint.
  EXPECT_EQ(writer_client_id(1, 2), kWriterId + 3);
  EXPECT_EQ(reader_client_id(1, 1, 2), kWriterId + 5);
  EXPECT_LT(reader_client_id(5, 1, 2), ProcessSet::kMaxProcesses);
}

TEST(KeyedStorageTest, ServersOverlappingTheClientIdsAreRefused) {
  // Servers take ids 0..n-1 below the writer's id 40.
  const auto system = [](std::size_t n) {
    return RefinedQuorumSystem(Adversary::none(n),
                               {Quorum{ProcessSet::universe(n)}});
  };
  EXPECT_NO_THROW(StorageCluster(system(40), {}));
  try {
    StorageCluster cluster(system(41), {});
    ADD_FAILURE() << "server 40 shares the writer's id";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("universe_size"), std::string::npos)
        << e.what();
  }
}

TEST(KeyedStorageTest, DisjointKeysAreIndependentRegisters) {
  StorageClusterConfig cfg;
  cfg.reader_count = 1;
  cfg.key_count = 4;
  StorageCluster cluster(make_fig1_fast5(), cfg);
  for (ObjectId key = 0; key < 4; ++key) {
    cluster.blocking_write(key, 100 + static_cast<Value>(key));
  }
  for (ObjectId key = 0; key < 4; ++key) {
    EXPECT_EQ(cluster.blocking_read(key, 0).value, 100 + static_cast<Value>(key));
  }
  // A later write to one key is invisible to the others.
  cluster.blocking_write(2, 777);
  EXPECT_EQ(cluster.blocking_read(0, 0).value, 100);
  EXPECT_EQ(cluster.blocking_read(2, 0).value, 777);
  EXPECT_EQ(cluster.blocking_read(3, 0).value, 103);
  for (ObjectId key = 0; key < 4; ++key) {
    EXPECT_TRUE(cluster.checker(key).check().atomic) << "key " << key;
  }
  // Server-side state is keyed too: each key has its own history rows.
  EXPECT_EQ(cluster.server(0).history(0).at(1, 1).pair, (TsValue{1, 100}));
  EXPECT_EQ(cluster.server(0).history(3).at(1, 1).pair, (TsValue{1, 103}));
  EXPECT_TRUE(cluster.server(0).history(9).at(1, 1).is_initial());
}

TEST(KeyedStorageTest, InterleavedKeyedOpsStayAtomicPerKey) {
  StorageClusterConfig cfg;
  cfg.reader_count = 2;
  cfg.key_count = 3;
  StorageCluster cluster(make_3t1_instantiation(1), cfg);
  // Launch concurrent ops on all keys, then drain.
  Value v = 1;
  for (int round = 0; round < 6; ++round) {
    for (ObjectId key = 0; key < 3; ++key) {
      if (cluster.write_done(key)) cluster.async_write(key, v++ * 10);
      if (cluster.read_done(key, 0)) cluster.async_read(key, 0);
      if (cluster.read_done(key, 1)) cluster.async_read(key, 1);
    }
    cluster.sim().run(cluster.sim().now() + 3 * sim::kDefaultDelta);
  }
  cluster.sim().run();
  for (ObjectId key = 0; key < 3; ++key) {
    EXPECT_TRUE(cluster.write_done(key));
    EXPECT_TRUE(cluster.read_done(key, 0));
    EXPECT_TRUE(cluster.read_done(key, 1));
    const auto result = cluster.checker(key).check();
    EXPECT_TRUE(result.atomic) << "key " << key << ": " << result.to_string();
    EXPECT_GT(cluster.checker(key).write_count(), 0u);
  }
}

TEST(MultiWriterTest, LexicographicTimestampsNeverCollide) {
  // Two writers (illegally, per the paper's single-writer assumption)
  // share a key. With integer timestamps both would emit ts = 1 and the
  // server-side conflict guard would silently drop one value while its
  // acks still satisfied the other writer's quorum. With (seq, writer)
  // ordering the pairs are distinct rows and the read deterministically
  // returns the lexicographically larger one.
  const RefinedQuorumSystem sys = make_3t1_instantiation(1);
  sim::Simulation sim;
  const ProcessSet servers = ProcessSet::universe(4);
  std::vector<std::unique_ptr<RqsStorageServer>> server_objs;
  for (ProcessId id = 0; id < 4; ++id) {
    server_objs.push_back(std::make_unique<RqsStorageServer>(sim, id));
  }
  RqsWriter w0(sim, 50, sys, servers, /*key=*/0, /*rank=*/0);
  RqsWriter w1(sim, 51, sys, servers, /*key=*/0, /*rank=*/1);
  RqsReader reader(sim, 52, sys, servers);

  bool done0 = false;
  bool done1 = false;
  w0.write(100, [&] { done0 = true; });
  w1.write(200, [&] { done1 = true; });
  ASSERT_TRUE(StorageCluster::drive(sim, [&] { return done0 && done1; }));
  EXPECT_EQ(w0.timestamp(), (Timestamp{1, 0}));
  EXPECT_EQ(w1.timestamp(), (Timestamp{1, 1}));
  // Both rows coexist on every server: no silent overwrite.
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_EQ(server_objs[id]->history().at(Timestamp{1, 0}, 1).pair,
              (TsValue{Timestamp{1, 0}, 100}));
    EXPECT_EQ(server_objs[id]->history().at(Timestamp{1, 1}, 1).pair,
              (TsValue{Timestamp{1, 1}, 200}));
  }
  Value read_value = kBottom;
  bool read_done = false;
  reader.read([&](Value v) {
    read_value = v;
    read_done = true;
  });
  ASSERT_TRUE(StorageCluster::drive(sim, [&] { return read_done; }));
  EXPECT_EQ(read_value, 200);  // (1, 1) > (1, 0) lexicographically
}

TEST(WrAckAliasingTest, StaleWritebackAckCannotSatisfyNextReadsQuorum) {
  // Regression for the cross-operation wr_ack aliasing bug: two reads of
  // the same pair issue writebacks with identical (ts, rnd); a late ack
  // from the first read's writeback must not count toward the second
  // read's writeback quorum (the server never stored the second
  // writeback). The operation nonce pins acks to their broadcast.
  //
  // Setup: disseminating system (reads always run collect + two writeback
  // rounds), server 0's messages to the reader delayed far beyond Delta.
  // Read 1 completes via the quorum {1,2,3,4}; server 1 then crashes, so
  // read 2's writeback quorum must contain server 0 — i.e. read 2 can only
  // finish once server 0's *fresh* acks arrive. With the aliasing bug,
  // server 0's stale read-1 acks (same ts, same rnd) complete read 2's
  // writeback rounds ~100 Deltas early.
  constexpr sim::SimTime kDelta = sim::kDefaultDelta;
  StorageCluster cluster(make_disseminating(5, 1, 1), {.reader_count = 1});
  cluster.network().fixed_delay(ProcessSet::single(0),
                                ProcessSet::single(kFirstReaderId), 100 * kDelta);
  cluster.blocking_write(7);
  EXPECT_EQ(cluster.blocking_read(0).value, 7);  // read 1 (3 rounds)

  const sim::SimTime read2_start = cluster.sim().now();
  cluster.async_read(0);  // read 2
  // Let the collect round finish (server 1 still up) and the first
  // writeback broadcast go out, then crash server 1 before it can ack.
  cluster.sim().run(read2_start + 2 * kDelta + kDelta / 2);
  ASSERT_FALSE(cluster.read_done(0));
  cluster.crash(1);
  ASSERT_TRUE(StorageCluster::drive(cluster.sim(),
                                    [&] { return cluster.read_done(0); }));
  EXPECT_EQ(cluster.last_read_value(0), 7);
  // Both writeback rounds waited for server 0's fresh (delayed) acks: the
  // buggy aliasing path would have completed before read2_start + 100
  // Deltas using read 1's stale acks.
  EXPECT_GE(cluster.sim().now(), read2_start + 150 * kDelta);
  EXPECT_TRUE(cluster.checker().check().atomic);
}

}  // namespace
}  // namespace rqs::storage
