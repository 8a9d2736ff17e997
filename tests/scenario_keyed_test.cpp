// Keyed scenario space: generated scenarios spread client operations over
// several independent registers of one server fleet; the runner checks
// atomicity per key and the swarm stays violation-free on valid systems.
#include <gtest/gtest.h>

#include "scenario/deployment.hpp"
#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "scenario/swarm.hpp"
#include "storage/harness.hpp"

namespace rqs::scenario {
namespace {

TEST(KeyedScenarioTest, GeneratorSamplesMultipleKeys) {
  ScenarioGenerator::Options opts;
  opts.protocols = {Protocol::kStorage};
  opts.max_keys = 3;
  const ScenarioGenerator gen(opts);
  bool saw_multi_key_spec = false;
  bool saw_nonzero_key_op = false;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const ScenarioSpec spec = gen.generate(seed);
    EXPECT_GE(spec.key_count, 1u);
    EXPECT_LE(spec.key_count, 3u);
    if (spec.key_count > 1) saw_multi_key_spec = true;
    for (const ScheduleEntry& e : spec.schedule) {
      EXPECT_LT(e.key, spec.key_count);
      if (e.key != 0) saw_nonzero_key_op = true;
    }
  }
  EXPECT_TRUE(saw_multi_key_spec);
  EXPECT_TRUE(saw_nonzero_key_op);
}

TEST(KeyedScenarioTest, HandcraftedMultiKeyScheduleChecksPerKey) {
  constexpr sim::SimTime kDelta = sim::kDefaultDelta;
  ScenarioSpec spec;
  spec.protocol = Protocol::kStorage;
  spec.family = SystemFamily::kFast5;
  spec.key_count = 3;
  spec.reader_count = 2;
  Value v = 1;
  for (ObjectId key = 0; key < 3; ++key) {
    ScheduleEntry w;
    w.kind = ScheduleEntry::Kind::kWrite;
    w.key = key;
    w.value = v++;
    w.at = static_cast<sim::SimTime>(key) * kDelta;
    spec.schedule.push_back(w);
    ScheduleEntry r;
    r.kind = ScheduleEntry::Kind::kRead;
    r.key = key;
    r.client = key % 2;
    r.at = 10 * kDelta + static_cast<sim::SimTime>(key) * kDelta;
    spec.schedule.push_back(r);
  }
  const ScenarioRunner runner;
  const ScenarioResult result = runner.run(spec);
  EXPECT_TRUE(result.ok()) << result.to_string();
  EXPECT_EQ(result.ops_started, 6u);
  EXPECT_EQ(result.ops_completed, 6u);
  EXPECT_GT(result.liveness_checked, 0u);
  // Deterministic: the same spec reruns to the same digest.
  EXPECT_EQ(runner.run(spec).trace_digest, result.trace_digest);
}

TEST(KeyedScenarioTest, AStartRefusedForABusyClientAddsNoLogEntry) {
  ScenarioSpec spec;
  spec.protocol = Protocol::kStorage;
  spec.family = SystemFamily::kFast5;
  spec.reader_count = 1;
  storage::StorageCluster cluster(materialize(spec.family),
                                  storage_config(spec));
  VisibilityRules visibility(cluster.network(), cluster.server_set());
  ScheduleEntry w;
  w.kind = ScheduleEntry::Kind::kWrite;
  w.value = 1;
  ScheduleEntry r;
  r.kind = ScheduleEntry::Kind::kRead;
  r.client = 0;
  ASSERT_TRUE(start_storage_op(cluster, visibility, w));
  ASSERT_TRUE(start_storage_op(cluster, visibility, r));
  w.value = 2;
  EXPECT_FALSE(start_storage_op(cluster, visibility, w));  // writer busy
  EXPECT_FALSE(start_storage_op(cluster, visibility, r));  // reader busy
  ASSERT_EQ(cluster.operations().size(), 2u);
  EXPECT_EQ(cluster.operations()[0].value, 1);
  EXPECT_EQ(cluster.endpoints(), 2u);
}

TEST(KeyedScenarioTest, KeyedSwarmOnValidSystemsHasNoViolations) {
  SwarmOptions opts;
  opts.scenarios = 200;
  opts.threads = 2;
  opts.base_seed = 1;
  opts.generator.protocols = {Protocol::kStorage};
  opts.generator.max_keys = 3;
  const SwarmReport report = run_swarm(opts);
  EXPECT_EQ(report.scenarios_run, 200u);
  EXPECT_EQ(report.violating, 0u) << report.summary();
  EXPECT_GT(report.ops_started, 200u);
  EXPECT_GT(report.liveness_checked, 50u);
  // Thread-count invariance holds for keyed workloads too.
  SwarmOptions single = opts;
  single.threads = 1;
  EXPECT_EQ(run_swarm(single).digest, report.digest);
}

TEST(KeyedScenarioTest, SwarmWorkloadMixHasNoViolations) {
  // The options of perfbench's `swarm` workload: the default generator mix
  // (both protocols, every fault kind, retries armed under loss), up to 3
  // keys, metrics collected, one worker; seeds 1..4000.
  SwarmOptions opts;
  opts.scenarios = 4000;
  opts.threads = 1;
  opts.base_seed = 1;
  opts.generator.max_keys = 3;
  opts.runner.collect_metrics = true;
  const SwarmReport report = run_swarm(opts);
  EXPECT_EQ(report.scenarios_run, 4000u);
  EXPECT_EQ(report.violating, 0u) << report.summary();
}

}  // namespace
}  // namespace rqs::scenario
