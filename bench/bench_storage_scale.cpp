// Experiment E17: bounded-history, multi-register storage.
//
// The paper's Figure 5-7 storage keeps the *entire* history of the shared
// variable (Section 5), so rd_ack payloads and reader-side predicate work
// grow linearly in the number of prior writes. The compacting servers
// (history rows below the latest known-complete timestamp are dropped)
// make both flat. The table and BM_ReadAfterCompletedWrites* measure read
// latency and rd_ack snapshot size as a function of prior completed
// writes, compacted vs. the retained full-history reference mode;
// BM_MultiKeyThroughput drives disjoint-key client sessions over one
// server fleet; BM_KeyedSwarmThroughput runs generated multi-key
// scenarios.
#include <memory>

#include "bench/bench_util.hpp"
#include "core/constructions.hpp"
#include "scenario/swarm.hpp"
#include "storage/harness.hpp"

namespace rqs::storage {
namespace {

std::unique_ptr<StorageCluster> cluster_with_writes(std::size_t writes,
                                                    bool compact,
                                                    std::size_t key_count = 1) {
  StorageClusterConfig cfg;
  cfg.reader_count = 1;
  cfg.key_count = key_count;
  cfg.compact_history = compact;
  auto cluster = std::make_unique<StorageCluster>(make_fig1_fast5(), cfg);
  for (Value v = 1; v <= static_cast<Value>(writes); ++v) {
    cluster->blocking_write(v);
  }
  return cluster;
}

void print_tables() {
  rqs::bench::print_header(
      "E17: bounded-history storage scaling",
      "full history (Section 5) grows rd_ack payloads O(prior writes); "
      "compaction keeps them O(1)");
  for (const std::size_t writes : {16u, 64u, 256u, 1024u}) {
    for (const bool compact : {false, true}) {
      auto cluster = cluster_with_writes(writes, compact);
      for (ProcessId id = 0; id < 5; ++id) {
        cluster->server(id).reset_reply_stats();
      }
      const auto outcome = cluster->blocking_read(0);
      std::uint64_t replies = 0;
      std::uint64_t rows = 0;
      std::uint64_t slots = 0;
      for (ProcessId id = 0; id < 5; ++id) {
        const auto& s = cluster->server(id).reply_stats();
        replies += s.replies;
        rows += s.rows;
        slots += s.slots;
      }
      rqs::bench::print_row(
          (compact ? std::string{"compacted, "} : std::string{"full history, "}) +
              std::to_string(writes) + " prior completed writes",
          "rows/rd_ack=" + std::to_string(rows / replies) + ", slots/rd_ack=" +
              std::to_string(slots / replies) + ", read rounds=" +
              std::to_string(outcome.rounds));
    }
  }
}

// One read against a cluster holding `writes` prior completed writes.
// Setup happens once; every iteration is a fresh read (reads leave the
// server state unchanged on the fast path, so iterations are identical).
void read_after_writes(benchmark::State& state, bool compact) {
  const auto writes = static_cast<std::size_t>(state.range(0));
  auto cluster = cluster_with_writes(writes, compact);
  for (ProcessId id = 0; id < 5; ++id) {
    cluster->server(id).reset_reply_stats();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster->blocking_read(0).value);
  }
  const auto& stats = cluster->server(0).reply_stats();
  state.counters["rows_per_rdack"] =
      benchmark::Counter(static_cast<double>(stats.rows) /
                         static_cast<double>(stats.replies));
  state.counters["slots_per_rdack"] =
      benchmark::Counter(static_cast<double>(stats.slots) /
                         static_cast<double>(stats.replies));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ReadAfterCompletedWrites(benchmark::State& state) {
  read_after_writes(state, /*compact=*/true);
}
BENCHMARK(BM_ReadAfterCompletedWrites)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_ReadAfterCompletedWritesFullHistory(benchmark::State& state) {
  read_after_writes(state, /*compact=*/false);
}
BENCHMARK(BM_ReadAfterCompletedWritesFullHistory)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// Disjoint-key sessions over one 5-server fleet: each iteration performs a
// write + read on every key (round-robin), the ops/s counter reports
// aggregate throughput as the key count grows.
void BM_MultiKeyThroughput(benchmark::State& state) {
  const auto keys = static_cast<std::size_t>(state.range(0));
  StorageClusterConfig cfg;
  cfg.reader_count = 1;
  cfg.key_count = keys;
  StorageCluster cluster(make_fig1_fast5(), cfg);
  Value v = 1;
  for (auto _ : state) {
    for (ObjectId key = 0; key < keys; ++key) {
      cluster.blocking_write(key, v++);
      benchmark::DoNotOptimize(cluster.blocking_read(key, 0).value);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(keys));
}
BENCHMARK(BM_MultiKeyThroughput)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// Generated multi-key scenario swarm (the keyed E16 companion): 100 seeded
// storage scenarios per iteration with up to 3 keys each. Timed on the wall
// clock: the swarm's worker threads do the work while the main thread,
// whose CPU time google-benchmark would otherwise measure, waits.
void BM_KeyedSwarmThroughput(benchmark::State& state) {
  scenario::SwarmOptions opts;
  opts.scenarios = 100;
  opts.threads = static_cast<std::size_t>(state.range(0));
  opts.generator.protocols = {scenario::Protocol::kStorage};
  opts.generator.max_keys = 3;
  opts.shrink_failures = false;
  std::size_t violating = 0;
  for (auto _ : state) {
    const scenario::SwarmReport report = scenario::run_swarm(opts);
    violating += report.violating;
    benchmark::DoNotOptimize(report.digest);
  }
  state.counters["violating"] = static_cast<double>(violating);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(opts.scenarios));
}
BENCHMARK(BM_KeyedSwarmThroughput)
    ->Arg(1)->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rqs::storage

RQS_BENCH_MAIN(rqs::storage::print_tables)
