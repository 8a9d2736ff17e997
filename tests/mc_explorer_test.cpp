// Model checker core: determinism of the exploration, the naive-vs-DPOR
// differential (equal violation sets and equal state sets, with the
// reduction factor the acceptance bar demands), zero-violation
// certificates for valid deployments, Byzantine role branching, schedule
// replay of discovered counterexamples, the queue position each choice
// carries, and the saved states the explorer restores on backtrack.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "mc/explorer.hpp"
#include "mc_pinned.hpp"
#include "mc_replay.hpp"
#include "storage/harness.hpp"

namespace rqs::mc {
namespace {

using scenario::FaultRole;
using scenario::ScenarioSpec;
using scenario::ScheduleEntry;
using scenario::SystemFamily;

ScheduleEntry write_entry(Value v, ProcessSet reachable = {}) {
  ScheduleEntry e;
  e.kind = ScheduleEntry::Kind::kWrite;
  e.value = v;
  e.reachable = reachable;
  return e;
}

ScheduleEntry read_entry(std::size_t client, ProcessSet reachable = {}) {
  ScheduleEntry e;
  e.kind = ScheduleEntry::Kind::kRead;
  e.client = client;
  e.reachable = reachable;
  return e;
}

ScheduleEntry crash_entry(ProcessId target) {
  ScheduleEntry e;
  e.kind = ScheduleEntry::Kind::kCrash;
  e.target = target;
  return e;
}

/// n = 3 valid crash deployment, one write concurrent with one read, both
/// confined to the quorum {0,1} — small enough for every mode.
ScenarioSpec tiny3_benign() {
  ScenarioSpec s;
  s.family = SystemFamily::kTiny3;
  s.reader_count = 1;
  s.schedule = {write_entry(7, ProcessSet{{0, 1}}),
                read_entry(0, ProcessSet{{0, 1}})};
  return s;
}

/// Same deployment with both quorum members Byzantine-amnesiac: the k = 0
/// assumption is broken, so the read can miss the completed write — a
/// guaranteed reachable atomicity violation.
ScenarioSpec tiny3_byzantine() {
  ScenarioSpec s = tiny3_benign();
  s.byzantine = ProcessSet{{0, 1}};
  s.role = FaultRole::kAmnesiac;
  return s;
}

/// The n = 4 differential anchor: write and read each confined to a
/// non-quorum pair, so both block — a schedule space that full naive
/// enumeration (no reduction at all) can still finish.
ScenarioSpec anchor4() {
  ScenarioSpec s;
  s.family = SystemFamily::kThreeT1of1;
  s.reader_count = 1;
  s.schedule = {write_entry(7, ProcessSet{{0, 1}}),
                read_entry(0, ProcessSet{{0, 1}})};
  return s;
}

ScenarioSpec fig1(SystemFamily family) {
  ScenarioSpec s;
  s.family = family;
  s.reader_count = 2;
  s.schedule = {write_entry(1, ProcessSet{{2}}),
                read_entry(0, ProcessSet{{2, 3, 4}}),
                read_entry(1, ProcessSet{{0, 1, 3}})};
  return s;
}

/// The writer and server 0 cut off from servers 1 and 2 forever, while the
/// write may be in flight.
ScenarioSpec tiny3_partitioned() {
  ScenarioSpec s;
  s.family = SystemFamily::kTiny3;
  s.reader_count = 1;
  ScheduleEntry cut;
  cut.kind = ScheduleEntry::Kind::kPartition;
  cut.side_a = ProcessSet{{0, storage::kWriterId}};
  cut.side_b = ProcessSet{{1, 2}};
  cut.until = ScheduleEntry::kForever;
  s.schedule = {write_entry(7), cut, read_entry(0)};
  return s;
}

/// Two registers, a write and a read on each.
ScenarioSpec tiny3_two_keys() {
  ScenarioSpec s;
  s.family = SystemFamily::kTiny3;
  s.reader_count = 1;
  s.key_count = 2;
  ScheduleEntry w1 = write_entry(8);
  w1.key = 1;
  ScheduleEntry r1 = read_entry(0);
  r1.key = 1;
  s.schedule = {write_entry(7), w1, read_entry(0), r1};
  return s;
}

/// Server 0 crashes while the write may be in flight.
ScenarioSpec tiny3_crash_mid_write() {
  ScenarioSpec s;
  s.family = SystemFamily::kTiny3;
  s.reader_count = 1;
  s.schedule = {write_entry(7), crash_entry(0), read_entry(0)};
  return s;
}

std::vector<std::string> signatures(const McResult& r) {
  std::vector<std::string> out;
  for (const McViolation& v : r.violations) out.push_back(v.signature);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(McDeterminismTest, SameSpecSameBoundByteIdenticalExploration) {
  for (const ScenarioSpec& spec : {tiny3_benign(), tiny3_byzantine()}) {
    const McResult a = explore(spec);
    const McResult b = explore(spec);
    EXPECT_EQ(a.exploration_digest, b.exploration_digest);
    EXPECT_EQ(a.stats.states_visited, b.stats.states_visited);
    EXPECT_EQ(a.stats.distinct_states, b.stats.distinct_states);
    EXPECT_EQ(a.stats.transitions, b.stats.transitions);
    EXPECT_EQ(a.stats.executions, b.stats.executions);
    EXPECT_EQ(signatures(a), signatures(b));
    EXPECT_EQ(a.complete, b.complete);
  }
}

TEST(McDeterminismTest, OptionsChangeTheDigestButNotTheVerdict) {
  McOptions naive;
  naive.use_sleep_sets = false;
  naive.use_state_cache = false;
  const McResult reduced = explore(tiny3_byzantine());
  const McResult shallow = explore(tiny3_byzantine(), [] {
    McOptions o;
    o.max_depth = 3;
    return o;
  }());
  EXPECT_TRUE(reduced.complete);
  EXPECT_FALSE(shallow.complete);
  expect_pinned(shallow, {0xa0ea756e49ed2296ull, 12, 36, 11, 18, 6, 0, 0, 12, 3,
                          0});
  EXPECT_GT(shallow.stats.truncated, 0u);
  EXPECT_NE(reduced.exploration_digest, shallow.exploration_digest);
}

TEST(McDifferentialTest, FullNaiveEqualsDporOnTheN4Anchor) {
  McOptions dpor;
  dpor.collect_state_digests = true;
  McOptions naive = dpor;
  naive.use_sleep_sets = false;
  naive.use_state_cache = false;

  const McResult reduced = explore(anchor4(), dpor);
  const McResult full = explore(anchor4(), naive);

  ASSERT_TRUE(reduced.complete);
  ASSERT_TRUE(full.complete);
  expect_pinned(reduced, {0xb3e3b4ee79f268d7ull, 1121, 9707, 1120, 1828, 691,
                          21, 1076, 0, 12, 0});
  expect_pinned(full, {0x25b7060ea9e7e907ull, 415800, 4989600, 415799, 1183160,
                       0, 0, 0, 0, 12, 0});
  EXPECT_TRUE(reduced.violations.empty());
  EXPECT_TRUE(full.violations.empty());
  // Same reachable state set, discovered with vastly less work.
  EXPECT_EQ(reduced.state_digests, full.state_digests);
  EXPECT_GE(full.stats.states_visited,
            5 * reduced.stats.states_visited);  // acceptance bar: >= 5x
  EXPECT_GE(full.stats.transitions, 5 * reduced.stats.transitions);
}

TEST(McDifferentialTest, GraphExhaustiveEqualsDporOnViolatingTiny3) {
  // Cache-only exploration walks every edge of the state graph; DPOR
  // additionally sleeps commuting siblings. Both must report the same
  // violation set and the same distinct state set.
  McOptions dpor;
  dpor.collect_state_digests = true;
  McOptions nosleep = dpor;
  nosleep.use_sleep_sets = false;

  const McResult reduced = explore(tiny3_byzantine(), dpor);
  const McResult exhaustive = explore(tiny3_byzantine(), nosleep);

  ASSERT_TRUE(reduced.complete);
  ASSERT_TRUE(exhaustive.complete);
  expect_pinned(exhaustive, {0x5bea375265fc8303ull, 1797, 18178, 1796, 2479,
                             682, 0, 1788, 0, 17, 1});
  ASSERT_FALSE(reduced.violations.empty());
  EXPECT_EQ(signatures(reduced), signatures(exhaustive));
  EXPECT_EQ(reduced.state_digests, exhaustive.state_digests);
  EXPECT_EQ(reduced.stats.distinct_states, exhaustive.stats.distinct_states);
  EXPECT_LT(reduced.stats.transitions, exhaustive.stats.transitions);
}

TEST(McCertificateTest, ValidTiny3WriteIsViolationFree) {
  ScenarioSpec s;
  s.family = SystemFamily::kTiny3;
  s.reader_count = 1;
  s.schedule = {write_entry(7)};
  const McResult r = explore(s);
  expect_pinned(r, {0xc0f59e71984adde2ull, 1726, 26842, 1725, 3647, 1797, 107,
                    1570, 0, 21, 0});
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.stats.truncated, 0u);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_GT(r.stats.distinct_states, 100u);  // it did explore something
}

TEST(McCertificateTest, ValidTiny3ConcurrentWriteReadIsViolationFree) {
  const McResult r = explore(tiny3_benign());
  expect_pinned(r, {0x2974c53050a130e5ull, 6133, 88840, 6132, 10444, 3851, 105,
                    5977, 0, 25, 0});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.stats.truncated, 0u);
}

TEST(McCertificateTest, CrashWithinToleranceKeepsTheCertificate) {
  ScenarioSpec s = tiny3_benign();
  s.schedule.insert(s.schedule.begin() + 1, crash_entry(2));
  const McResult r = explore(s);
  expect_pinned(r, {0x1ffacc51c29c14bfull, 6190, 95434, 6189, 10569, 3886, 105,
                    6034, 0, 26, 0});
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.stats.truncated, 0u);
}

TEST(McRoleBranchingTest, OnlyTheFullCoalitionViolates) {
  const std::vector<RoleBranch> branches = explore_roles(tiny3_byzantine());
  ASSERT_EQ(branches.size(), 4u);  // subsets of {0,1}
  // Sorted smallest-coalition-first.
  EXPECT_TRUE(branches.front().coalition.empty());
  for (const RoleBranch& b : branches) {
    EXPECT_TRUE(b.result.complete) << b.coalition.to_string();
    if (b.coalition.size() == 2) {
      EXPECT_FALSE(b.result.violations.empty())
          << "both-amnesiac quorum must lose the write";
    } else {
      EXPECT_TRUE(b.result.violations.empty())
          << b.coalition.to_string()
          << ": one honest quorum member suffices at k=0";
    }
  }
}

TEST(McRoleBranchingTest, CoalitionMembersOutsideTheSystemAddNoBranch) {
  // Id 5 is not a server of the n = 3 system, so it builds no Byzantine
  // process; before, it doubled the branches with copies of the others.
  ScenarioSpec spec = tiny3_byzantine();
  spec.byzantine.insert(5);
  const std::vector<RoleBranch> with = explore_roles(spec);
  const std::vector<RoleBranch> without = explore_roles(tiny3_byzantine());
  ASSERT_EQ(with.size(), without.size());
  for (std::size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].coalition, without[i].coalition);
    EXPECT_EQ(with[i].result.exploration_digest,
              without[i].result.exploration_digest);
  }
}

TEST(McReplayTest, ViolationSchedulesReplayToTheSameSignature) {
  const McResult r = explore(tiny3_byzantine());
  expect_pinned(r, {0xf6475d000dc29d52ull, 1046, 11107, 1045, 1795, 682, 30,
                    1007, 0, 17, 1});
  ASSERT_FALSE(r.violations.empty());
  const McViolation& v = r.violations.front();

  McExecution exec(tiny3_byzantine());
  ASSERT_TRUE(exec.unsupported().empty());
  std::vector<FiredStep> steps;
  for (const Choice& c : v.schedule) {
    steps.push_back(fire_and_observe(exec, c));
  }
  std::string joined;
  for (const std::string& s : steps.back().violations) {
    if (!joined.empty()) joined += "; ";
    joined += s;
  }
  EXPECT_EQ(joined, v.signature);
  // A fresh execution fired along the schedule meets the same states.
  expect_replay_matches(tiny3_byzantine(), steps);
}

TEST(McReplayTest, RandomWalksReplayToTheSameStates) {
  // Every walk also checks each choice's position against the reference
  // scan, the search fire() made before choices carried a position.
  std::uint64_t seed = 7;
  for (const ScenarioSpec& spec :
       {tiny3_benign(), tiny3_byzantine(), anchor4()}) {
    expect_random_walks_replay(spec, seed++, 5);
  }
}

TEST(McReplayTest, PayloadIdenticalTwinsCollapseToTheSmallestKey) {
  // The explorable fragment has no duplication, so the walks above never
  // queue two payload-identical events. Duplicating every send on the
  // execution's own network queues a twin for each delivery, the copy
  // under the smaller key.
  std::mt19937_64 rng(3);
  McExecution exec(tiny3_benign());
  exec.cluster().network().set_duplication(1.0, /*seed=*/1);
  std::size_t twins = 0;
  std::vector<Choice> enabled;
  exec.enabled(enabled);
  while (!enabled.empty()) {
    twins += expect_reference_positions(exec, enabled);
    exec.fire(enabled[rng() % enabled.size()]);
    exec.enabled(enabled);
  }
  EXPECT_GT(twins, 0u);
}

/// What an execution shows of its state: the explorer's view (digest,
/// enabled choices with their positions, violations), the queue as laid
/// out (keys and timer ids) and the cluster's log and counters.
struct Observed {
  std::uint64_t digest{0};
  std::vector<Choice> enabled;
  std::vector<std::uint32_t> positions;
  std::vector<std::string> violations;
  std::vector<std::pair<std::uint64_t, sim::TimerId>> queue;
  std::vector<std::tuple<bool, ObjectId, std::size_t, sim::SimTime,
                         std::uint64_t, std::uint64_t, Value>>
      operations;
  std::uint64_t endpoints{0};
  std::uint64_t delivered{0};
  std::uint64_t sent{0};
  std::vector<std::pair<std::string_view, std::uint64_t>> sent_by_tag;
};

Observed observe(McExecution& exec) {
  Observed o;
  o.digest = exec.digest();
  exec.enabled(o.enabled);
  o.positions = positions(o.enabled);
  exec.violations(o.violations);
  storage::StorageCluster& cluster = exec.cluster();
  sim::Simulation& sim = cluster.sim();
  for (std::size_t i = 0; i < sim.queued_count(); ++i) {
    const sim::Event& ev = sim.queued_event(i);
    o.queue.emplace_back(
        ev.key, ev.kind() == sim::Event::kTimer ? ev.timer.id : 0);
  }
  for (const auto& op : cluster.operations()) {
    o.operations.emplace_back(op.is_write, op.key, op.reader, op.invoked_at,
                              op.invoked, op.responded, op.value);
  }
  o.endpoints = cluster.endpoints();
  o.delivered = sim.messages_delivered();
  o.sent = cluster.network().messages_sent();
  o.sent_by_tag.assign(cluster.network().sent_by_tag().begin(),
                       cluster.network().sent_by_tag().end());
  return o;
}

void expect_same(const Observed& got, const Observed& want) {
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.enabled, want.enabled);
  EXPECT_EQ(got.positions, want.positions);
  EXPECT_EQ(got.violations, want.violations);
  EXPECT_EQ(got.queue, want.queue);
  EXPECT_EQ(got.operations, want.operations);
  EXPECT_EQ(got.endpoints, want.endpoints);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.sent, want.sent);
  EXPECT_EQ(got.sent_by_tag, want.sent_by_tag);
}

/// Fires up to `steps` random choices, stopping early at a terminal state,
/// and appends them to `fired` when it is given.
void walk(McExecution& exec, std::mt19937_64& rng, std::size_t steps,
          std::vector<Choice>* fired) {
  std::vector<Choice> enabled;
  for (std::size_t i = 0; i < steps; ++i) {
    exec.enabled(enabled);
    if (enabled.empty()) return;
    const Choice c = enabled[rng() % enabled.size()];
    exec.fire(c);
    if (fired != nullptr) fired->push_back(c);
  }
}

McExecution& fire_all(McExecution& exec, const std::vector<Choice>& path) {
  for (const Choice& c : path) exec.fire(c);
  return exec;
}

/// Seeded walks that twice save at a random depth, walk a random suffix and
/// restore, the second save overwriting the first in the same State, and
/// compare the execution with a fresh one fired along the same prefix.
/// Then both continue along one random suffix, compared at every step.
void expect_restores_match_replays(const ScenarioSpec& spec,
                                   std::uint64_t seed, int walks) {
  std::mt19937_64 rng(seed);
  std::size_t suffix_steps = 0;
  for (int w = 0; w < walks; ++w) {
    McExecution exec(spec);
    ASSERT_TRUE(exec.unsupported().empty()) << exec.unsupported();
    McExecution::State saved;  // destroyed before exec, as it must be
    std::vector<Choice> prefix;
    for (int round = 0; round < 2; ++round) {
      const std::size_t depth = rng() % 12;
      walk(exec, rng, depth, &prefix);
      exec.save(saved);
      std::vector<Choice> suffix;
      walk(exec, rng, 1 + rng() % 40, &suffix);
      suffix_steps += suffix.size();
      exec.restore(saved);
      McExecution fresh(spec);
      SCOPED_TRACE("walk " + std::to_string(w) + ", restore " +
                   std::to_string(round) + " at depth " +
                   std::to_string(prefix.size()));
      expect_same(observe(exec), observe(fire_all(fresh, prefix)));
    }
    McExecution fresh(spec);
    fire_all(fresh, prefix);
    std::vector<Choice> enabled;
    for (std::size_t step = 0;; ++step) {
      SCOPED_TRACE("walk " + std::to_string(w) + ", step " +
                   std::to_string(step) + " after the restores");
      const Observed got = observe(exec);
      expect_same(got, observe(fresh));
      if (got.enabled.empty() || ::testing::Test::HasFailure()) break;
      const Choice c = got.enabled[rng() % got.enabled.size()];
      exec.fire(c);
      fresh.fire(c);
    }
  }
  EXPECT_GT(suffix_steps, static_cast<std::size_t>(walks));  // restores undid work
}

TEST(McRestoreTest, RestoredStatesEqualReplayedOnes) {
  std::uint64_t seed = 11;
  for (const ScenarioSpec& spec :
       {tiny3_benign(), tiny3_byzantine(), anchor4(),
        fig1(SystemFamily::kFig1Broken5), fig1(SystemFamily::kFast5),
        tiny3_partitioned(), tiny3_two_keys(), tiny3_crash_mid_write()}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_restores_match_replays(spec, seed++, 20);
  }
}

TEST(McFragmentTest, UnsupportedSpecsAreRejectedNotMischecked) {
  {
    ScenarioSpec s = tiny3_benign();
    s.protocol = scenario::Protocol::kConsensus;
    EXPECT_FALSE(explore(s).error.empty());
  }
  {
    ScenarioSpec s = tiny3_benign();
    ScheduleEntry e;
    e.kind = ScheduleEntry::Kind::kLoss;
    e.probability = 0.5;
    s.schedule.push_back(e);
    EXPECT_FALSE(explore(s).error.empty());
  }
  {
    ScenarioSpec s = tiny3_benign();
    ScheduleEntry e;
    e.kind = ScheduleEntry::Kind::kPartition;
    e.side_a = ProcessSet{{0}};
    e.side_b = ProcessSet{{1}};
    e.until = 5000;  // timed lift needs the clock the MC abstracts away
    s.schedule.push_back(e);
    EXPECT_FALSE(explore(s).error.empty());
  }
  {
    ScenarioSpec s = tiny3_benign();
    s.schedule.push_back(write_entry(7));  // duplicate value on key 0
    EXPECT_FALSE(explore(s).error.empty());
  }
}

TEST(McFragmentTest, CrashOfANonServerIsIgnoredAsInTheRunner) {
  // The runner ignores a kCrash whose target is not a server, and its
  // liveness predicate assumes so; the model checker injects through the
  // same apply_fault_entry, so crashing the writer changes nothing.
  auto digest_after = [](ProcessId target) {
    ScenarioSpec s;
    s.family = SystemFamily::kTiny3;
    s.reader_count = 1;
    s.schedule = {crash_entry(target)};
    McExecution exec(s);
    EXPECT_TRUE(exec.unsupported().empty());
    std::vector<Choice> enabled;
    exec.enabled(enabled);
    EXPECT_EQ(enabled.size(), 1u);  // the one injection
    exec.fire(enabled.front());
    return exec.digest();
  };
  EXPECT_EQ(digest_after(storage::kWriterId), digest_after(kInvalidProcess));
}

TEST(McBudgetTest, StateBudgetAndDepthBoundClearComplete) {
  {
    McOptions o;
    o.max_states = 50;
    const McResult r = explore(tiny3_benign(), o);
    expect_pinned(r, {0xd13468f3cfaee44full, 13, 270, 12, 50, 40, 3, 6, 0, 22,
                      0});
    EXPECT_FALSE(r.complete);
  }
  {
    McOptions o;
    o.max_depth = 4;
    const McResult r = explore(tiny3_benign(), o);
    expect_pinned(r, {0x7a46884e1bc2e8f8ull, 35, 140, 34, 53, 17, 0, 0, 35, 4,
                      0});
    EXPECT_FALSE(r.complete);
    EXPECT_GT(r.stats.truncated, 0u);
  }
}

TEST(McBudgetTest, StopOnFirstViolationShortCircuits) {
  McOptions o;
  o.stop_on_first_violation = true;
  const McResult r = explore(tiny3_byzantine(), o);
  expect_pinned(r, {0x350eda7f861ddb54ull, 976, 10447, 975, 1640, 646, 27, 942,
                    0, 17, 1});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_FALSE(r.complete);  // an aborted search is never a certificate
  const McResult full = explore(tiny3_byzantine());
  EXPECT_LE(r.stats.states_visited, full.stats.states_visited);
}

}  // namespace
}  // namespace rqs::mc
