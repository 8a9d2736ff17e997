// Liveness under loss: the retransmission/backoff/dedup layer.
//
// Three claims are checked here. Passivity: a RetryPolicy::Config that is
// present but disabled changes nothing — loss-free executions are
// byte-identical to the send-once paper automata. Recovery: writers,
// readers and proposers outlive total blackout windows and finite lossy /
// duplicating windows, with attempt metrics surfacing through the
// observer. Scale: a thousand generated scenarios, every one carrying a
// lossy window (p <= 0.5, finite) and a duplication window, report zero
// safety and zero liveness violations.
#include <gtest/gtest.h>

#include "common/fnv.hpp"
#include "consensus/harness.hpp"
#include "core/constructions.hpp"
#include "scenario/swarm.hpp"
#include "storage/harness.hpp"

namespace rqs {
namespace {

constexpr sim::SimTime kDelta = sim::kDefaultDelta;

/// A disabled-but-populated config: every field set, enabled = false.
/// The layer must treat this exactly like a default config.
RetryPolicy::Config disabled_retry() {
  RetryPolicy::Config retry;
  retry.enabled = false;
  retry.base_delay = 7777;
  retry.max_attempts = 4;
  retry.seed = 0xfeedface;
  return retry;
}

RetryPolicy::Config enabled_retry(std::uint32_t max_attempts = 0) {
  RetryPolicy::Config retry;
  retry.enabled = true;
  retry.max_attempts = max_attempts;
  retry.seed = 1;
  return retry;
}

struct StorageOutcome {
  sim::SimTime end_time{0};
  std::uint64_t delivered{0};
  std::uint64_t state_digest{0};
};

StorageOutcome run_storage_workload(const RetryPolicy::Config& retry) {
  storage::StorageClusterConfig cfg;
  cfg.reader_count = 2;
  cfg.retry = retry;
  storage::StorageCluster c(make_fig1_fast5(), cfg);
  c.blocking_write(7);
  c.blocking_read(0);
  c.async_write(9);
  c.async_read(1);
  c.sim().run(c.sim().now() + 100 * kDelta);
  Fnv64 h;
  c.writer().digest_state(h);
  c.reader(0).digest_state(h);
  c.reader(1).digest_state(h);
  for (const ProcessId s : c.server_set()) c.server(s).digest_state(h);
  return {c.sim().now(), c.sim().messages_delivered(), h.digest()};
}

TEST(RetryPassivityTest, DisabledConfigIsInertForStorage) {
  const StorageOutcome base = run_storage_workload(RetryPolicy::Config{});
  const StorageOutcome with_cfg = run_storage_workload(disabled_retry());
  EXPECT_EQ(base.end_time, with_cfg.end_time);
  EXPECT_EQ(base.delivered, with_cfg.delivered);
  EXPECT_EQ(base.state_digest, with_cfg.state_digest);
}

struct ConsensusOutcome {
  sim::SimTime end_time{0};
  std::uint64_t delivered{0};
  sim::SimTime learn_time{0};
  Value value{consensus::kNil};
};

ConsensusOutcome run_consensus_workload(const RetryPolicy::Config& retry) {
  consensus::ClusterConfig cfg;
  cfg.proposer_count = 2;
  cfg.learner_count = 2;
  cfg.retry = retry;
  consensus::ConsensusCluster c(make_3t1_instantiation(1), cfg);
  c.propose(0, 11);
  c.propose(1, 22);
  EXPECT_TRUE(c.run_until_learned());
  c.sim().run(c.sim().now() + 50 * kDelta);
  return {c.sim().now(), c.sim().messages_delivered(),
          c.learner(0).learn_time(), c.learner(0).learned_value()};
}

TEST(RetryPassivityTest, DisabledConfigIsInertForConsensus) {
  const ConsensusOutcome base = run_consensus_workload(RetryPolicy::Config{});
  const ConsensusOutcome with_cfg = run_consensus_workload(disabled_retry());
  EXPECT_EQ(base.end_time, with_cfg.end_time);
  EXPECT_EQ(base.delivered, with_cfg.delivered);
  EXPECT_EQ(base.learn_time, with_cfg.learn_time);
  EXPECT_EQ(base.value, with_cfg.value);
}

TEST(LossRecoveryTest, StorageWriteOutlivesTotalBlackout) {
  storage::StorageClusterConfig cfg;
  cfg.reader_count = 1;
  cfg.retry = enabled_retry();
  storage::StorageCluster c(make_fig1_fast5(), cfg);
  c.network().set_loss(1.0, /*seed=*/42);
  c.async_write(5);
  c.sim().run(50 * kDelta);
  EXPECT_FALSE(c.write_done());
  c.network().set_loss(0.0, 42);
  c.sim().run(c.sim().now() + 200 * kDelta);
  EXPECT_TRUE(c.write_done());
  EXPECT_EQ(c.blocking_read(0).value, 5);
  EXPECT_TRUE(c.checker().check().atomic);
}

TEST(LossRecoveryTest, StorageReadOutlivesTotalBlackout) {
  storage::StorageClusterConfig cfg;
  cfg.reader_count = 1;
  cfg.retry = enabled_retry();
  storage::StorageCluster c(make_fig1_fast5(), cfg);
  c.blocking_write(9);
  c.network().set_loss(1.0, 7);
  c.async_read(0);
  c.sim().run(c.sim().now() + 50 * kDelta);
  EXPECT_FALSE(c.read_done(0));
  c.network().set_loss(0.0, 7);
  c.sim().run(c.sim().now() + 200 * kDelta);
  ASSERT_TRUE(c.read_done(0));
  EXPECT_TRUE(c.checker().check().atomic);
}

TEST(LossRecoveryTest, ConsensusProposalOutlivesTotalBlackout) {
  consensus::ClusterConfig cfg;
  cfg.proposer_count = 1;
  cfg.learner_count = 2;
  cfg.retry = enabled_retry();
  consensus::ConsensusCluster c(make_3t1_instantiation(1), cfg);
  c.network().set_loss(1.0, 3);
  c.propose(0, 42);
  c.sim().run(50 * kDelta);
  EXPECT_FALSE(c.learner(0).learned());
  c.network().set_loss(0.0, 3);
  ASSERT_TRUE(c.run_until_learned(3000));
  EXPECT_EQ(c.agreed_value(), std::optional<Value>{42});
}

TEST(LossRecoveryTest, GiveUpQuiescesAndReProposalRecovers) {
  // Capped attempts: after max_attempts swallowed retransmissions the
  // proposer goes quiet (no unbounded retry spin) — recovery then belongs
  // to whoever re-drives it (a view-change election or, as here, the
  // client re-proposing), which resets the attempt budget.
  consensus::ClusterConfig cfg;
  cfg.proposer_count = 1;
  cfg.learner_count = 1;
  cfg.retry = enabled_retry(/*max_attempts=*/4);
  consensus::ConsensusCluster c(make_3t1_instantiation(1), cfg);
  obs::Observer ob;
  c.sim().set_observer(&ob);
  c.network().set_loss(1.0, 5);
  c.propose(0, 8);
  c.sim().run(200 * kDelta);
  EXPECT_FALSE(c.learner(0).learned());
  const auto snap = ob.snapshot();
  EXPECT_EQ(snap.counter("consensus.propose.retransmit"), 4u);
  EXPECT_EQ(snap.counter("consensus.propose.giveup"), 1u);
  c.network().set_loss(0.0, 5);
  c.propose(0, 8);
  ASSERT_TRUE(c.run_until_learned(3000));
  EXPECT_EQ(c.agreed_value(), std::optional<Value>{8});
}

/// Spec with one client op under a total loss window covering its start.
scenario::ScenarioSpec blackout_spec(scenario::Protocol protocol) {
  scenario::ScenarioSpec spec;
  spec.protocol = protocol;
  spec.family = protocol == scenario::Protocol::kStorage
                    ? scenario::SystemFamily::kFast5
                    : scenario::SystemFamily::kThreeT1of1;
  spec.seed = 1;
  scenario::ScheduleEntry loss;
  loss.kind = scenario::ScheduleEntry::Kind::kLoss;
  loss.at = 0;
  loss.until = 20 * kDelta;
  loss.probability = 1.0;
  spec.schedule.push_back(loss);
  scenario::ScheduleEntry op;
  if (protocol == scenario::Protocol::kStorage) {
    op.kind = scenario::ScheduleEntry::Kind::kWrite;
    op.value = 7;
  } else {
    op.kind = scenario::ScheduleEntry::Kind::kPropose;
    op.value = 7;
    op.client = 0;
  }
  op.at = kDelta;
  spec.schedule.push_back(op);
  return spec;
}

TEST(LossRecoveryTest, RunnerArmsRetriesAndAssertsLivenessThroughFiniteLoss) {
  scenario::ScenarioRunner::Options opts;
  opts.collect_metrics = true;
  const scenario::ScenarioRunner runner(opts);

  const scenario::ScenarioResult st =
      runner.run(blackout_spec(scenario::Protocol::kStorage));
  EXPECT_TRUE(st.ok()) << st.to_string();
  EXPECT_GT(st.liveness_checked, 0u);  // finite loss no longer voids liveness
  EXPECT_EQ(st.ops_completed, st.ops_started);
  EXPECT_GT(st.metrics.counter("storage.write.retransmit") +
                st.metrics.counter("storage.write.failover"),
            0u);
  EXPECT_EQ(st.metrics.counter("storage.write.retried"), 1u);
  EXPECT_EQ(st.metrics.counter("storage.write.first_try"), 0u);

  const scenario::ScenarioResult cs =
      runner.run(blackout_spec(scenario::Protocol::kConsensus));
  EXPECT_TRUE(cs.ok()) << cs.to_string();
  EXPECT_GT(cs.liveness_checked, 0u);
  EXPECT_EQ(cs.ops_completed, cs.ops_started);
  EXPECT_GT(cs.metrics.counter("consensus.propose.retransmit"), 0u);
}

TEST(LossRecoveryTest, DuplicationWindowIsHarmless) {
  scenario::ScenarioSpec spec;
  spec.protocol = scenario::Protocol::kStorage;
  spec.family = scenario::SystemFamily::kFast5;
  spec.seed = 2;
  scenario::ScheduleEntry dup;
  dup.kind = scenario::ScheduleEntry::Kind::kDuplicate;
  dup.at = 0;
  dup.until = 30 * kDelta;
  dup.probability = 1.0;
  spec.schedule.push_back(dup);
  scenario::ScheduleEntry wr;
  wr.kind = scenario::ScheduleEntry::Kind::kWrite;
  wr.value = 3;
  wr.at = kDelta;
  spec.schedule.push_back(wr);
  scenario::ScheduleEntry rd;
  rd.kind = scenario::ScheduleEntry::Kind::kRead;
  rd.client = 0;
  rd.at = 10 * kDelta;
  spec.schedule.push_back(rd);
  const scenario::ScenarioResult res = scenario::ScenarioRunner{}.run(spec);
  EXPECT_TRUE(res.ok()) << res.to_string();
  EXPECT_EQ(res.ops_completed, res.ops_started);
}

TEST(LossySwarmTest, ThousandLossyDuplicatingScenariosSafeAndLive) {
  // The acceptance bar: >= 1000 seeded scenarios, every one scheduling a
  // finite lossy window (p <= 0.5) and a duplication window on top of the
  // usual crash/partition/Byzantine mix — zero safety and zero liveness
  // violations.
  scenario::SwarmOptions opts;
  opts.scenarios = 1000;
  opts.threads = 4;
  opts.base_seed = 77;
  opts.generator.loss_probability = 1.0;
  opts.generator.duplication_probability = 1.0;
  const scenario::SwarmReport report = run_swarm(opts);
  EXPECT_EQ(report.scenarios_run, 1000u);
  EXPECT_EQ(report.violating, 0u) << report.summary();
  EXPECT_TRUE(report.failures.empty());
  EXPECT_GT(report.ops_started, 1000u);
  EXPECT_GT(report.ops_completed, 0u);
  EXPECT_GT(report.liveness_checked, 100u);
}

}  // namespace
}  // namespace rqs
