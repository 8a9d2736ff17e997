// Determinism of the scenario subsystem: a seed fully determines the
// generated spec, the executed trace (golden-seed digest stability) and the
// swarm report — independent of thread count. ScenarioPinnedTest goes
// further and compares runs with values recorded once.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "scenario/swarm.hpp"

namespace rqs::scenario {
namespace {

TEST(ScenarioGeneratorTest, SameSeedSameSpec) {
  const ScenarioGenerator gen;
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1009ULL}) {
    const ScenarioSpec a = gen.generate(seed);
    const ScenarioSpec b = gen.generate(seed);
    EXPECT_EQ(a.to_string(), b.to_string()) << "seed " << seed;
    EXPECT_EQ(a.seed, seed);
  }
}

TEST(ScenarioGeneratorTest, DifferentSeedsDiversify) {
  const ScenarioGenerator gen;
  std::set<std::string> specs;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    specs.insert(gen.generate(seed).to_string());
  }
  // Collisions would mean the seed barely feeds the sampling.
  EXPECT_GE(specs.size(), 45u);
}

TEST(ScenarioGeneratorTest, ByzantineAssignmentsComeFromTheAdversary) {
  ScenarioGenerator::Options opts;
  opts.byzantine_probability = 1.0;
  const ScenarioGenerator gen(opts);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const ScenarioSpec spec = gen.generate(seed);
    const RefinedQuorumSystem sys = materialize(spec.family);
    EXPECT_TRUE(sys.adversary().contains(spec.byzantine))
        << "seed " << seed << ": " << spec.byzantine.to_string()
        << " outside " << sys.adversary().to_string();
  }
}

TEST(ScenarioRunnerTest, GoldenSeedTraceDigestIsStable) {
  // Same seed => identical trace digest, twice — across fresh generator and
  // runner instances, for both protocols.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const ScenarioSpec spec = ScenarioGenerator().generate(seed);
    const ScenarioResult a = ScenarioRunner().run(spec);
    const ScenarioResult b = ScenarioRunner().run(spec);
    EXPECT_EQ(a.trace_digest, b.trace_digest) << "seed " << seed;
    EXPECT_EQ(a.violations, b.violations) << "seed " << seed;
    EXPECT_EQ(a.ops_completed, b.ops_completed) << "seed " << seed;
    EXPECT_EQ(a.end_time, b.end_time) << "seed " << seed;
  }
}

TEST(ScenarioRunnerTest, DigestsDifferAcrossSeeds) {
  const ScenarioGenerator gen;
  const ScenarioRunner runner;
  std::set<std::uint64_t> digests;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    digests.insert(runner.run(gen.generate(seed)).trace_digest);
  }
  EXPECT_GE(digests.size(), 25u);
}

TEST(SwarmTest, ReportIsThreadCountInvariant) {
  SwarmOptions opts;
  opts.scenarios = 40;
  opts.base_seed = 100;
  SwarmReport one, four;
  opts.threads = 1;
  one = run_swarm(opts);
  opts.threads = 4;
  four = run_swarm(opts);
  EXPECT_EQ(one.digest, four.digest);
  EXPECT_EQ(one.violating, four.violating);
  EXPECT_EQ(one.ops_started, four.ops_started);
  EXPECT_EQ(one.ops_completed, four.ops_completed);
  EXPECT_EQ(one.liveness_checked, four.liveness_checked);
}

// Pinned runner results. Each row replays one generated scenario and
// compares everything ScenarioResult reports about the execution with
// values recorded once: the trace digest, the op tallies, the liveness
// count, the end time, the delivered-message count and the number of
// violations. A change to how the runner deploys a spec, injects its
// entries or judges the outcome moves at least one of these numbers.
enum class PinSet : std::uint8_t {
  kDefault,      // default generator and runner
  kKeyed3,       // generator max_keys = 3
  kFig1Hunt,     // ScenarioGenerator::fig1_hunt(); its first violating seeds
  kFullHistory,  // runner compact_history = false
  kTraced,       // runner trace_capacity = 1 << 16; also pins events_digest
};

struct PinnedRun {
  PinSet set{PinSet::kDefault};
  std::uint64_t seed{0};
  std::uint64_t trace_digest{0};
  std::size_t started{0}, completed{0}, skipped{0}, liveness{0};
  sim::SimTime end_time{0};
  std::uint64_t delivered{0};
  std::size_t violations{0};
  std::uint64_t events_digest{0};

  friend bool operator==(const PinnedRun&, const PinnedRun&) = default;
};

const char* pin_set_name(PinSet set) {
  switch (set) {
    case PinSet::kDefault: return "kDefault";
    case PinSet::kKeyed3: return "kKeyed3";
    case PinSet::kFig1Hunt: return "kFig1Hunt";
    case PinSet::kFullHistory: return "kFullHistory";
    case PinSet::kTraced: return "kTraced";
  }
  return "?";
}

PinnedRun measure(PinSet set, std::uint64_t seed) {
  ScenarioGenerator::Options gen;
  ScenarioRunner::Options run;
  switch (set) {
    case PinSet::kDefault: break;
    case PinSet::kKeyed3: gen.max_keys = 3; break;
    case PinSet::kFig1Hunt: gen = ScenarioGenerator::fig1_hunt(); break;
    case PinSet::kFullHistory: run.compact_history = false; break;
    case PinSet::kTraced: run.trace_capacity = std::size_t{1} << 16; break;
  }
  const ScenarioResult r =
      ScenarioRunner(run).run(ScenarioGenerator(gen).generate(seed));
  return {set, seed, r.trace_digest, r.ops_started, r.ops_completed,
          r.ops_skipped, r.liveness_checked, r.end_time,
          r.messages_delivered, r.violations.size(), r.events_digest};
}

std::string to_cpp(const std::vector<PinnedRun>& rows) {
  std::ostringstream os;
  for (const PinnedRun& p : rows) {
    os << "    {PinSet::" << pin_set_name(p.set) << ", " << p.seed << ", 0x"
       << std::hex << p.trace_digest << std::dec << "ull, " << p.started
       << ", " << p.completed << ", " << p.skipped << ", " << p.liveness
       << ", " << p.end_time << ", " << p.delivered << ", " << p.violations
       << ", 0x" << std::hex << p.events_digest << std::dec << "ull},\n";
  }
  return os.str();
}

// {set, seed, trace_digest, started, completed, skipped, liveness,
//  end_time, delivered, violations, events_digest}
const std::vector<PinnedRun> kPinnedRuns = {
    {PinSet::kDefault, 1, 0x53494c7234930a6full, 3, 3, 0, 3, 41514, 42, 0, 0x0ull},
    {PinSet::kDefault, 2, 0x28c864343da5d621ull, 3, 1, 2, 0, 451429, 2576, 0, 0x0ull},
    {PinSet::kDefault, 3, 0x2815a276e840b78cull, 2, 2, 0, 2, 24637, 248, 0, 0x0ull},
    {PinSet::kDefault, 4, 0xe2e901a0c0d79c2eull, 2, 2, 0, 2, 22428, 726, 0, 0x0ull},
    {PinSet::kDefault, 5, 0x70771fc47deec3e9ull, 6, 6, 0, 0, 43677, 138, 0, 0x0ull},
    {PinSet::kDefault, 6, 0xbc8fb7fdc1a0d74eull, 2, 2, 0, 0, 39304, 189, 0, 0x0ull},
    {PinSet::kDefault, 7, 0xf12da71a5717d956ull, 5, 4, 1, 3, 43366, 40, 0, 0x0ull},
    {PinSet::kDefault, 8, 0x6cae63eeba38b890ull, 2, 2, 0, 2, 27692, 16, 0, 0x0ull},
    {PinSet::kDefault, 9, 0xe61752b56f0f1298ull, 3, 3, 0, 0, 44021, 30, 0, 0x0ull},
    {PinSet::kDefault, 10, 0xbd2e31b87a190ad1ull, 2, 0, 2, 0, 32540, 14, 0, 0x0ull},
    {PinSet::kDefault, 11, 0xb1c7adf8ce81d3f3ull, 5, 5, 0, 5, 45611, 47, 0, 0x0ull},
    {PinSet::kDefault, 12, 0xa98ad732279c5ed2ull, 2, 2, 0, 2, 41616, 396, 0, 0x0ull},
    {PinSet::kDefault, 13, 0x7b1ff09490aae48full, 3, 2, 2, 0, 446863, 44, 0, 0x0ull},
    {PinSet::kDefault, 14, 0x2a3d3dc788184575ull, 2, 1, 0, 0, 37912, 12, 0, 0x0ull},
    {PinSet::kDefault, 15, 0xcad863925df68d45ull, 2, 2, 0, 2, 41005, 54, 0, 0x0ull},
    {PinSet::kDefault, 16, 0xbdad22161f145dfbull, 2, 2, 0, 0, 37341, 129, 0, 0x0ull},
    {PinSet::kDefault, 17, 0xf8c954e5af25f4eaull, 2, 2, 0, 0, 1278833, 224, 0, 0x0ull},
    {PinSet::kDefault, 18, 0xb6894e4fe11534c8ull, 2, 2, 0, 0, 29488, 224, 0, 0x0ull},
    {PinSet::kDefault, 19, 0x5451c62c613af03dull, 2, 0, 0, 0, 46003, 20, 0, 0x0ull},
    {PinSet::kDefault, 20, 0x8a9987db3d317f3full, 2, 0, 0, 0, 2041000, 1386, 0, 0x0ull},
    {PinSet::kDefault, 21, 0xb8c3d98b67661d99ull, 2, 1, 0, 0, 438194, 22, 0, 0x0ull},
    {PinSet::kDefault, 22, 0x57c699c8f5fdf54dull, 2, 2, 0, 0, 41799, 1044, 0, 0x0ull},
    {PinSet::kDefault, 23, 0xe484b6377bc39ed8ull, 5, 5, 1, 1, 48204, 74, 0, 0x0ull},
    {PinSet::kDefault, 24, 0x4cf06df563a3857aull, 2, 2, 0, 2, 26190, 2133, 0, 0x0ull},
    {PinSet::kDefault, 25, 0x22fd9790748ade47ull, 2, 1, 1, 0, 447771, 74, 0, 0x0ull},
    {PinSet::kDefault, 26, 0xf8f99b3faf7f5e07ull, 3, 3, 1, 3, 39695, 47, 0, 0x0ull},
    {PinSet::kDefault, 27, 0x164a0ed5d34493ecull, 2, 2, 1, 0, 46062, 25, 0, 0x0ull},
    {PinSet::kDefault, 28, 0x152ef3d57d9596b4ull, 2, 2, 0, 0, 39852, 168, 0, 0x0ull},
    {PinSet::kDefault, 29, 0xabe6c9280a1adf75ull, 2, 2, 0, 2, 36795, 2276, 0, 0x0ull},
    {PinSet::kDefault, 30, 0xae67462d09f1453dull, 2, 2, 0, 0, 31030, 336, 0, 0x0ull},
    {PinSet::kDefault, 31, 0x8082c0fb44822eebull, 2, 0, 0, 0, 44731, 88, 0, 0x0ull},
    {PinSet::kDefault, 32, 0x7b73c1f01a2b54b1ull, 2, 2, 0, 0, 1277031, 1331, 0, 0x0ull},
    {PinSet::kKeyed3, 1, 0x99054f10c03fa356ull, 5, 5, 0, 5, 52461, 119, 0, 0x0ull},
    {PinSet::kKeyed3, 2, 0x643da30de00ddd8bull, 2, 0, 2, 0, 33984, 48, 0, 0x0ull},
    {PinSet::kKeyed3, 3, 0x2815a276e840b78cull, 2, 2, 0, 2, 24637, 248, 0, 0x0ull},
    {PinSet::kKeyed3, 4, 0xe2e901a0c0d79c2eull, 2, 2, 0, 2, 22428, 726, 0, 0x0ull},
    {PinSet::kKeyed3, 5, 0xcfe7d482ba06e135ull, 3, 3, 0, 3, 25678, 40, 0, 0x0ull},
    {PinSet::kKeyed3, 6, 0xbc8fb7fdc1a0d74eull, 2, 2, 0, 0, 39304, 189, 0, 0x0ull},
    {PinSet::kKeyed3, 7, 0xb6a1b16d25c4147eull, 4, 4, 0, 3, 42343, 56, 0, 0x0ull},
    {PinSet::kKeyed3, 8, 0x1340a829bad1610cull, 4, 4, 0, 3, 48743, 41, 0, 0x0ull},
    {PinSet::kFig1Hunt, 121, 0x35590e24c591ad07ull, 4, 3, 1, 0, 38763, 30, 1, 0x0ull},
    {PinSet::kFig1Hunt, 214, 0x9c8c73af4d30cca8ull, 4, 3, 1, 0, 27176, 26, 1, 0x0ull},
    {PinSet::kFullHistory, 5, 0x70771fc47deec3e9ull, 6, 6, 0, 0, 43677, 138, 0, 0x0ull},
    {PinSet::kTraced, 42, 0xa6e8af60ec65d9d6ull, 6, 6, 0, 3, 31501, 62, 0, 0x8aa937077c2a84b2ull},
};

TEST(ScenarioPinnedTest, RunsMatchRecordedValues) {
  std::vector<PinnedRun> measured;
  for (const PinnedRun& want : kPinnedRuns) {
    measured.push_back(measure(want.set, want.seed));
    EXPECT_TRUE(measured.back() == want)
        << pin_set_name(want.set) << " seed " << want.seed;
  }
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << "measured:\n" << to_cpp(measured);
  }
}

}  // namespace
}  // namespace rqs::scenario
