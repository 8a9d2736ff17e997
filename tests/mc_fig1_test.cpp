// Exhaustive re-discovery of the paper's Figure 1 counterexample.
//
// The greedy "broken-5" system satisfies the availability properties but
// not Property 2; Section 1.2 exhibits a read inversion: a write reaches
// only s3 and stalls, a fast read via {s3,s4,s5} returns the new value in
// one round, and a later read via {s1,s2,s4} misses it. The model checker
// must (a) find exactly this violation by exhaustive search over the
// three-entry spec, (b) certify the repaired fast5 system clean on the
// *same* schedule, and (c) hand the runner/shrinker a reproducer that
// replays and minimizes to <= 3 entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "mc/explorer.hpp"
#include "mc_pinned.hpp"
#include "mc_replay.hpp"
#include "scenario/runner.hpp"
#include "scenario/shrink.hpp"

namespace rqs::mc {
namespace {

using scenario::ScenarioSpec;
using scenario::ScheduleEntry;
using scenario::SystemFamily;

/// The Fig. 1 scenario as a three-entry spec. Servers s1..s5 are ids
/// 0..4: the write reaches only s3 (id 2), the fast read sees {s3,s4,s5}
/// and the late read sees {s1,s2,s4}.
ScenarioSpec fig1_spec(SystemFamily family) {
  ScenarioSpec s;
  s.family = family;
  s.reader_count = 2;
  ScheduleEntry w;
  w.kind = ScheduleEntry::Kind::kWrite;
  w.value = 1;
  w.reachable = ProcessSet{{2}};
  ScheduleEntry r0;
  r0.kind = ScheduleEntry::Kind::kRead;
  r0.client = 0;
  r0.reachable = ProcessSet{{2, 3, 4}};
  ScheduleEntry r1;
  r1.kind = ScheduleEntry::Kind::kRead;
  r1.client = 1;
  r1.reachable = ProcessSet{{0, 1, 3}};
  s.schedule = {w, r0, r1};
  return s;
}

/// The reduced broken-5 search, explored once and shared by the tests that
/// read it (each search replays 105,542 arrivals).
const McResult& broken5() {
  static const McResult result =
      explore(fig1_spec(SystemFamily::kFig1Broken5));
  return result;
}

TEST(McFig1Test, ExhaustiveSearchRediscoversTheReadInversion) {
  const McResult& r = broken5();
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_TRUE(r.complete) << "search must exhaust the bounded space";
  expect_pinned(r, {0xcb708dfefe72d940ull, 76754, 984269, 76753, 105542, 26291,
                    181, 76537, 0, 20, 1});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_NE(r.violations[0].signature.find("read inversion"),
            std::string::npos)
      << r.violations[0].signature;
  EXPECT_FALSE(r.violations[0].schedule.empty());
}

TEST(McFig1Test, NaiveAndDporAgreeOnTheViolationSet) {
  McOptions nosleep;
  nosleep.use_sleep_sets = false;
  const McResult& reduced = broken5();
  const McResult exhaustive =
      explore(fig1_spec(SystemFamily::kFig1Broken5), nosleep);
  ASSERT_TRUE(reduced.complete);
  ASSERT_TRUE(exhaustive.complete);
  expect_pinned(exhaustive, {0x5a2184a5c6ca20dcull, 131067, 1621912, 131066,
                             157358, 26291, 0, 131031, 0, 20, 1});
  ASSERT_EQ(reduced.violations.size(), 1u);
  ASSERT_EQ(exhaustive.violations.size(), 1u);
  EXPECT_EQ(reduced.violations[0].signature, exhaustive.violations[0].signature);
  EXPECT_EQ(reduced.stats.distinct_states, exhaustive.stats.distinct_states);
  EXPECT_LT(reduced.stats.transitions, exhaustive.stats.transitions);
}

TEST(McFig1Test, RepairedFast5CertifiesCleanOnTheSameSchedule) {
  const McResult r = explore(fig1_spec(SystemFamily::kFast5));
  ASSERT_TRUE(r.error.empty()) << r.error;
  expect_pinned(r, {0x4f827222736e0d94ull, 154650, 3049442, 154649, 225201,
                    57791, 380, 154216, 0, 44, 0});
  EXPECT_TRUE(r.ok()) << (r.violations.empty()
                              ? r.error
                              : r.violations[0].signature);
  EXPECT_EQ(r.stats.truncated, 0u);
}

TEST(McFig1Test, McViolationReplaysCanonically) {
  const ScenarioSpec spec = fig1_spec(SystemFamily::kFig1Broken5);
  const McResult& r = broken5();
  ASSERT_EQ(r.violations.size(), 1u);
  McExecution exec(spec);
  ASSERT_TRUE(exec.unsupported().empty());
  std::vector<FiredStep> steps;
  for (const Choice& c : r.violations[0].schedule) {
    steps.push_back(fire_and_observe(exec, c));
  }
  const std::vector<std::string>& viols = steps.back().violations;
  ASSERT_EQ(viols.size(), 1u);
  EXPECT_EQ(viols[0], r.violations[0].signature);
  // The explorer's backtrack replays the path on a fresh execution.
  expect_replay_matches(spec, steps);
}

TEST(McFig1Test, RandomWalksReplayToTheSameStates) {
  // As McReplayTest's walks, on the five-server broken system.
  expect_random_walks_replay(fig1_spec(SystemFamily::kFig1Broken5), 5, 5);
}

TEST(McFig1Test, ProjectionReproducesUnderTheScenarioRunner) {
  const ScenarioSpec projected =
      to_runner_spec(fig1_spec(SystemFamily::kFig1Broken5));
  const scenario::ScenarioRunner runner;
  const scenario::ScenarioResult res = runner.run(projected);
  ASSERT_FALSE(res.violations.empty());
  const bool has_inversion =
      std::any_of(res.violations.begin(), res.violations.end(),
                  [](const std::string& v) {
                    return v.find("read inversion") != std::string::npos;
                  });
  EXPECT_TRUE(has_inversion) << res.violations[0];
}

TEST(McFig1Test, ShrinkCertifiesAMinimalReproducer) {
  const ScenarioSpec projected =
      to_runner_spec(fig1_spec(SystemFamily::kFig1Broken5));
  const scenario::ScenarioRunner runner;
  const scenario::ShrinkResult sr = scenario::shrink(projected, runner);
  EXPECT_TRUE(sr.violating);
  EXPECT_LE(sr.spec.schedule.size(), 3u);
  // All three entries are load-bearing: the stalled write plants the
  // value, the fast read returns it, the late read misses it.
  EXPECT_EQ(sr.entries_after, 3u);
}

TEST(McFig1Test, ProjectionKeepsEntriesAndSpacesThemOut) {
  const ScenarioSpec spec = fig1_spec(SystemFamily::kFig1Broken5);
  const ScenarioSpec projected = to_runner_spec(spec);
  ASSERT_EQ(projected.schedule.size(), spec.schedule.size());
  for (std::size_t i = 1; i < projected.schedule.size(); ++i) {
    EXPECT_GT(projected.schedule[i].at, projected.schedule[i - 1].at);
  }
}

}  // namespace
}  // namespace rqs::mc
