// Randomized property tests: across random schedules (operation timing,
// link delays, crashes, Byzantine denial), every complete history produced
// by the RQS storage is atomic and — whenever a correct quorum exists —
// operations terminate. Parameterized over seeds and quorum systems.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/constructions.hpp"
#include "sim/network.hpp"
#include "storage/harness.hpp"

namespace rqs::storage {
namespace {

enum class SystemKind { kFast5, kThreeT1, kExample7, kGraded7 };

RefinedQuorumSystem make_system(SystemKind kind) {
  switch (kind) {
    case SystemKind::kFast5: return make_fig1_fast5();
    case SystemKind::kThreeT1: return make_3t1_instantiation(1);
    case SystemKind::kExample7: return make_example7();
    case SystemKind::kGraded7: return make_graded_threshold(7, 1, 2, 1, 0);
  }
  return make_fig1_fast5();
}

struct RandomCase {
  SystemKind kind;
  std::uint64_t seed;
  bool byzantine;   // make one adversary-allowed server Byzantine
  bool jitter;      // random per-message delays in [delta, 3*delta]
};

class StorageRandomTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(StorageRandomTest, RandomScheduleStaysAtomic) {
  const RandomCase param = GetParam();
  Rng rng(param.seed);
  const RefinedQuorumSystem sys = make_system(param.kind);
  const std::size_t n = sys.universe_size();

  ProcessSet byz;
  if (param.byzantine) {
    // Pick a server allowed to be Byzantine by the adversary.
    for (ProcessId id = 0; id < n; ++id) {
      if (sys.adversary().contains(ProcessSet::single(id))) {
        byz = ProcessSet::single(id);
        break;
      }
    }
  }
  StorageCluster cluster(sys,
                         {.reader_count = 2, .byzantine = byz,
                          .forge = ByzantineStorageServer::fabricate(TsValue{1000, -7})});

  if (param.jitter) {
    auto engine = std::make_shared<Rng>(param.seed ^ 0x9e3779b97f4a7c15ULL);
    cluster.network().add_rule(
        [engine](ProcessId, ProcessId, sim::SimTime, const sim::Message&)
            -> std::optional<std::optional<sim::SimTime>> {
          return std::optional<sim::SimTime>{
              engine->uniform(sim::kDefaultDelta, 3 * sim::kDefaultDelta)};
        });
  }

  // Random interleaving of writes and reads from two readers.
  Value next = 1;
  std::size_t pending_ops = 0;
  for (int step = 0; step < 30; ++step) {
    const int action = static_cast<int>(rng.uniform(0, 2));
    if (action == 0 && cluster.write_done()) {
      cluster.async_write(next++);
      ++pending_ops;
    } else if (action == 1 && cluster.read_done(0)) {
      cluster.async_read(0);
      ++pending_ops;
    } else if (action == 2 && cluster.read_done(1)) {
      cluster.async_read(1);
      ++pending_ops;
    }
    // Let the simulation advance a random amount.
    cluster.sim().run(cluster.sim().now() + rng.uniform(0, 4 * sim::kDefaultDelta));
  }
  // Drain everything.
  cluster.sim().run();
  EXPECT_TRUE(cluster.write_done());
  EXPECT_TRUE(cluster.read_done(0));
  EXPECT_TRUE(cluster.read_done(1));
  EXPECT_GT(pending_ops, 0u);

  const auto result = cluster.checker().check();
  EXPECT_TRUE(result.atomic) << result.to_string();
}

std::vector<RandomCase> make_cases() {
  std::vector<RandomCase> cases;
  for (const SystemKind kind : {SystemKind::kFast5, SystemKind::kThreeT1,
                                SystemKind::kExample7, SystemKind::kGraded7}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      cases.push_back(RandomCase{kind, seed, false, false});
      cases.push_back(RandomCase{kind, seed * 31, false, true});
      if (kind != SystemKind::kFast5) {  // fast5's adversary is crash-only
        cases.push_back(RandomCase{kind, seed * 101, true, false});
        cases.push_back(RandomCase{kind, seed * 1009, true, true});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Schedules, StorageRandomTest,
                         ::testing::ValuesIn(make_cases()));

TEST(StorageCrashSweepTest, EveryTolerableCrashPatternStaysLive) {
  // For the 5-server fast system (t = 2): crash every subset of <= 2
  // servers; writes and reads must terminate and agree.
  for (std::uint64_t mask = 0; mask < 32; ++mask) {
    const ProcessSet crashed = ProcessSet::from_mask(mask);
    if (crashed.size() > 2) continue;
    StorageCluster cluster(make_fig1_fast5(), {.reader_count = 1});
    for (const ProcessId id : crashed) cluster.crash(id);
    cluster.blocking_write(7);
    const auto rd = cluster.blocking_read(0);
    EXPECT_EQ(rd.value, 7) << "crashed=" << crashed.to_string();
    EXPECT_TRUE(cluster.checker().check().atomic);
  }
}

TEST(StorageCrashSweepTest, LatencyMatchesAvailableClassUnderCrashes) {
  // (m, QC_m)-fast, exhaustively over crash patterns: the write's round
  // count never exceeds the class of the best all-correct quorum.
  for (std::uint64_t mask = 0; mask < 32; ++mask) {
    const ProcessSet crashed = ProcessSet::from_mask(mask);
    if (crashed.size() > 2) continue;
    const RefinedQuorumSystem sys = make_fig1_fast5();
    const ProcessSet alive = crashed.complement(5);
    const auto best = sys.best_available(alive);
    ASSERT_TRUE(best.has_value());
    StorageCluster cluster(sys, {.reader_count = 0});
    for (const ProcessId id : crashed) cluster.crash(id);
    const RoundNumber rounds = cluster.blocking_write(3);
    EXPECT_LE(rounds, static_cast<RoundNumber>(sys.quorum(*best).cls))
        << "crashed=" << crashed.to_string();
  }
}

}  // namespace
}  // namespace rqs::storage
