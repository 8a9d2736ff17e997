// Differential suite: the compacted (bounded-history) storage must be
// observationally identical to the paper's full-history storage. Every
// seeded schedule — including Byzantine fabricate/equivocate servers,
// crashes and per-message jitter — is executed twice, once per mode, and
// must produce identical read results, identical per-operation round
// counts and identical recorded histories; the scenario-runner variant
// additionally requires bit-identical trace digests (which hash every
// operation's invocation/response times and values).
#include <gtest/gtest.h>

#include <optional>

#include "common/rng.hpp"
#include "core/constructions.hpp"
#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "sim/network.hpp"
#include "storage/harness.hpp"

namespace rqs::storage {
namespace {

enum class Fault { kNone, kFabricate, kEquivocate };

struct DiffCase {
  std::uint64_t seed;
  int system;  // 0 = fast5, 1 = 3t+1(t=1), 2 = example7, 3 = graded7
  Fault fault;
  bool jitter;
};

RefinedQuorumSystem make_system(int kind) {
  switch (kind) {
    case 0: return make_fig1_fast5();
    case 1: return make_3t1_instantiation(1);
    case 2: return make_example7();
    default: return make_graded_threshold(7, 1, 2, 1, 0);
  }
}

/// One observed read: value and protocol rounds.
struct ReadObs {
  Value value{kBottom};
  RoundNumber rounds{0};
  friend bool operator==(const ReadObs&, const ReadObs&) = default;
};

struct Trace {
  std::vector<ReadObs> reads;
  std::vector<RoundNumber> write_rounds;
  std::size_t checker_reads{0};
  std::size_t checker_writes{0};
  bool atomic{false};
  std::size_t max_server_rows{0};
  friend bool operator==(const Trace&, const Trace&) = default;
};

/// Runs one seeded random schedule in the given mode. Deterministic: both
/// modes see the exact same operation timing, crash pattern and
/// per-message delays, so any observable divergence is the compaction's.
Trace run_mode(const DiffCase& c, bool compact) {
  const RefinedQuorumSystem sys = make_system(c.system);
  const std::size_t n = sys.universe_size();

  StorageClusterConfig cfg;
  cfg.reader_count = 2;
  cfg.compact_history = compact;
  if (c.fault != Fault::kNone) {
    for (ProcessId id = 0; id < n; ++id) {
      if (sys.adversary().contains(ProcessSet::single(id))) {
        cfg.byzantine = ProcessSet::single(id);
        break;
      }
    }
    cfg.forge = c.fault == Fault::kFabricate
                    ? ByzantineStorageServer::fabricate(TsValue{1000, -7})
                    : ByzantineStorageServer::equivocate(TsValue{1000, -7},
                                                         TsValue{1001, -8});
  }
  StorageCluster cluster(sys, cfg);

  if (c.jitter) {
    auto engine = std::make_shared<Rng>(c.seed ^ 0x9e3779b97f4a7c15ULL);
    cluster.network().add_rule(
        [engine](ProcessId, ProcessId, sim::SimTime, const sim::Message&)
            -> std::optional<std::optional<sim::SimTime>> {
          return std::optional<sim::SimTime>{
              engine->uniform(sim::kDefaultDelta, 3 * sim::kDefaultDelta)};
        });
  }

  Trace trace;
  Rng rng(c.seed);
  Value next = 1;
  bool crashed_one = false;
  for (int step = 0; step < 40; ++step) {
    const int action = static_cast<int>(rng.uniform(0, 5));
    if (action == 0 && cluster.write_done()) {
      cluster.async_write(next++);
    } else if (action == 1 && cluster.read_done(0)) {
      cluster.async_read(0);
    } else if (action == 2 && cluster.read_done(1)) {
      cluster.async_read(1);
    } else if (action == 3 && !crashed_one && cfg.byzantine.empty() &&
               rng.chance(0.2)) {
      // Crash one adversary-tolerated server mid-run (same step and target
      // in both modes). Only in benign runs, so a quorum stays correct.
      for (ProcessId id = 0; id < n; ++id) {
        if (sys.adversary().contains(ProcessSet::single(id))) {
          cluster.crash(id);
          crashed_one = true;
          break;
        }
      }
    }
    const sim::SimTime advance = rng.uniform(0, 4 * sim::kDefaultDelta);
    cluster.sim().run(cluster.sim().now() + advance);
    if (cluster.read_done(0) && step % 7 == 3) {
      trace.reads.push_back(
          ReadObs{cluster.last_read_value(0), cluster.reader(0).last_read_rounds()});
    }
  }
  cluster.sim().run();
  EXPECT_TRUE(cluster.write_done());
  EXPECT_TRUE(cluster.read_done(0));
  EXPECT_TRUE(cluster.read_done(1));

  for (std::size_t i = 0; i < 2; ++i) {
    trace.reads.push_back(ReadObs{cluster.last_read_value(i),
                                  cluster.reader(i).last_read_rounds()});
  }
  trace.write_rounds.push_back(cluster.writer().last_write_rounds());
  trace.checker_reads = cluster.checker().read_count();
  trace.checker_writes = cluster.checker().write_count();
  trace.atomic = cluster.checker().check().atomic;
  for (ProcessId id = 0; id < n; ++id) {
    trace.max_server_rows =
        std::max(trace.max_server_rows, cluster.server(id).history().row_count());
  }
  return trace;
}

class StorageDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(StorageDifferentialTest, CompactedMatchesFullHistory) {
  const DiffCase c = GetParam();
  const Trace full = run_mode(c, /*compact=*/false);
  const Trace compacted = run_mode(c, /*compact=*/true);
  EXPECT_TRUE(full.atomic);
  EXPECT_TRUE(compacted.atomic);
  EXPECT_EQ(full.reads, compacted.reads) << "seed " << c.seed;
  EXPECT_EQ(full.write_rounds, compacted.write_rounds) << "seed " << c.seed;
  EXPECT_EQ(full.checker_reads, compacted.checker_reads);
  EXPECT_EQ(full.checker_writes, compacted.checker_writes);
  // And compaction actually compacts: whenever the full run accumulated
  // history, the compacted run retains strictly less (bounded) state.
  if (full.max_server_rows > 4) {
    EXPECT_LT(compacted.max_server_rows, full.max_server_rows);
  }
}

std::vector<DiffCase> make_cases() {
  std::vector<DiffCase> cases;
  for (std::uint64_t seed = 1; seed <= 7; ++seed) {
    for (int system = 0; system < 4; ++system) {
      cases.push_back(DiffCase{seed * 13, system, Fault::kNone, false});
      cases.push_back(DiffCase{seed * 17, system, Fault::kNone, true});
      if (system != 0) {  // fast5's adversary is crash-only
        cases.push_back(DiffCase{seed * 29, system, Fault::kFabricate, true});
        cases.push_back(DiffCase{seed * 31, system, Fault::kEquivocate, true});
      }
    }
  }
  return cases;  // 7 * (2*4 + 2*3) = 98 cases >= 25 seeds
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageDifferentialTest,
                         ::testing::ValuesIn(make_cases()));

// Scenario-runner differential: generated keyed scenarios (fault
// schedules, partitions, asynchrony, visibility-restricted ops) must
// produce bit-identical trace digests in both modes.
TEST(ScenarioDifferentialTest, DigestsIdenticalAcrossModes) {
  scenario::ScenarioGenerator::Options gopts;
  gopts.protocols = {scenario::Protocol::kStorage};
  gopts.max_keys = 3;
  const scenario::ScenarioGenerator gen(gopts);

  scenario::ScenarioRunner::Options full_opts;
  full_opts.compact_history = false;
  const scenario::ScenarioRunner full(full_opts);
  const scenario::ScenarioRunner compacted;  // default: compaction on

  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const scenario::ScenarioSpec spec = gen.generate(seed);
    const scenario::ScenarioResult a = full.run(spec);
    const scenario::ScenarioResult b = compacted.run(spec);
    EXPECT_EQ(a.trace_digest, b.trace_digest) << "seed " << seed;
    EXPECT_EQ(a.violations, b.violations) << "seed " << seed;
    EXPECT_EQ(a.ops_completed, b.ops_completed) << "seed " << seed;
    EXPECT_TRUE(a.ok()) << "seed " << seed << "\n" << a.to_string();
  }
}

}  // namespace
}  // namespace rqs::storage
