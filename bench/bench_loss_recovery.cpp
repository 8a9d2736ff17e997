// Experiment E23: liveness under loss — client-op latency (p50/p99, in
// units of the synchrony bound Δ) versus per-link loss probability in
// [0, 0.5], and time-to-recover after a 50Δ total blackout, per
// quorum-system class. With the retransmission layer armed, every
// operation completes at every swept loss rate (the paper's channels are
// reliable; capped-exponential resend recovers exactly the fair-lossy
// weakening the consensus model tolerates), and post-blackout recovery is
// bounded by the backoff ladder's next rung, not by the outage length.
#include <algorithm>
#include <vector>

#include "bench/bench_util.hpp"
#include "consensus/harness.hpp"
#include "core/constructions.hpp"
#include "storage/harness.hpp"

namespace rqs {
namespace {

constexpr sim::SimTime kDelta = sim::kDefaultDelta;
constexpr std::uint64_t kSeed = 0xe23;

RetryPolicy::Config armed(std::uint64_t seed) {
  RetryPolicy::Config retry;
  retry.enabled = true;
  retry.seed = seed;
  return retry;
}

/// q-th percentile of `samples` (nearest-rank), in Δ units.
double percentile_deltas(std::vector<sim::SimTime> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return static_cast<double>(samples[rank]) / static_cast<double>(kDelta);
}

struct LatencyRow {
  double write_p50{0}, write_p99{0}, read_p50{0}, read_p99{0};
};

/// One long-lived cluster per (system, p): alternating writes and reads
/// under sustained per-link loss, latencies sampled per operation.
LatencyRow storage_latency_under_loss(const RefinedQuorumSystem& sys,
                                      double p, std::size_t ops) {
  storage::StorageClusterConfig cfg;
  cfg.reader_count = 1;
  cfg.retry = armed(kSeed);
  storage::StorageCluster c(sys, cfg);
  if (p > 0.0) c.network().set_loss(p, kSeed ^ 0x10551055ULL);
  std::vector<sim::SimTime> writes, reads;
  Value v = 1;
  for (std::size_t i = 0; i < ops; ++i) {
    sim::SimTime t0 = c.sim().now();
    c.blocking_write(v++);
    writes.push_back(c.sim().now() - t0);
    t0 = c.sim().now();
    c.blocking_read(0);
    reads.push_back(c.sim().now() - t0);
  }
  return {percentile_deltas(writes, 0.5), percentile_deltas(writes, 0.99),
          percentile_deltas(reads, 0.5), percentile_deltas(reads, 0.99)};
}

/// Write issued into a total blackout that heals after 50Δ: Δ-granular
/// time from the heal to operation completion (the retransmission layer's
/// reaction time, not the outage length).
sim::SimTime storage_blackout_recovery(const RefinedQuorumSystem& sys) {
  storage::StorageClusterConfig cfg;
  cfg.reader_count = 1;
  cfg.retry = armed(kSeed);
  storage::StorageCluster c(sys, cfg);
  c.blocking_write(1);  // warm state so the blackout hits a steady cluster
  c.network().set_loss(1.0, kSeed);
  c.async_write(2);
  c.sim().run(c.sim().now() + 50 * kDelta);
  c.network().set_loss(0.0, kSeed);
  const sim::SimTime healed = c.sim().now();
  // Event-step (run(now + Δ) would spin: now() only advances as events
  // fire, and the next backoff rung can be further than Δ away) until
  // 400Δ after the heal; run_until's deadline is inclusive.
  return c.sim().run_until([&] { return c.write_done(); },
                           healed + 400 * kDelta - 1)
             ? c.sim().now() - healed
             : -1;
}

struct ConsensusRow {
  double learn_p50{0}, learn_p99{0};
  std::size_t learned{0}, runs{0};
};

/// Consensus decides once, so each latency sample is a fresh cluster with
/// a decorrelated retry seed; the loss stream is re-seeded per run.
ConsensusRow consensus_latency_under_loss(const RefinedQuorumSystem& sys,
                                          double p, std::size_t runs) {
  ConsensusRow out;
  out.runs = runs;
  std::vector<sim::SimTime> lats;
  for (std::size_t r = 0; r < runs; ++r) {
    consensus::ClusterConfig cfg;
    cfg.proposer_count = 1;
    cfg.learner_count = 1;
    cfg.retry = armed(kSeed + r);
    consensus::ConsensusCluster c(sys, cfg);
    if (p > 0.0) c.network().set_loss(p, kSeed ^ (r * 0x9e3779b9ULL));
    c.propose(0, 7);
    if (c.run_until_learned(2000)) {
      ++out.learned;
      lats.push_back(c.learner(0).learn_time());
    }
  }
  out.learn_p50 = percentile_deltas(lats, 0.5);
  out.learn_p99 = percentile_deltas(lats, 0.99);
  return out;
}

sim::SimTime consensus_blackout_recovery(const RefinedQuorumSystem& sys) {
  consensus::ClusterConfig cfg;
  cfg.proposer_count = 1;
  cfg.learner_count = 1;
  cfg.retry = armed(kSeed);
  consensus::ConsensusCluster c(sys, cfg);
  c.network().set_loss(1.0, kSeed);
  c.propose(0, 7);
  c.sim().run(50 * kDelta);
  c.network().set_loss(0.0, kSeed);
  const sim::SimTime healed = c.sim().now();
  if (!c.run_until_learned(2000)) return -1;
  return c.learner(0).learn_time() - healed;
}

std::string fmt(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", x);
  return buf;
}

void print_tables() {
  struct System {
    std::string label;
    RefinedQuorumSystem sys;
    bool consensus;
  };
  std::vector<System> systems;
  systems.push_back({"fig1-fast5 (class-1 fast quorums)", make_fig1_fast5(), false});
  systems.push_back({"3t+1 (t=1, threshold)", make_3t1_instantiation(1), true});
  systems.push_back({"example7 (general adversary)", make_example7(), true});
  const double kLossRates[] = {0.0, 0.1, 0.25, 0.5};

  rqs::bench::print_header(
      "E23a: storage op latency vs loss probability (32 ops/point)",
      "with retransmission armed, every op completes at p <= 0.5; latency "
      "degrades with the backoff ladder, in Δ");
  for (const auto& s : systems) {
    for (const double p : kLossRates) {
      const LatencyRow r = storage_latency_under_loss(s.sys, p, 32);
      rqs::bench::print_row(
          s.label + "  p=" + fmt(p * 100) + "%",
          "write p50/p99=" + fmt(r.write_p50) + "/" + fmt(r.write_p99) +
              "Δ  read p50/p99=" + fmt(r.read_p50) + "/" + fmt(r.read_p99) +
              "Δ");
    }
  }

  rqs::bench::print_header(
      "E23b: consensus learn latency vs loss probability (12 runs/point)",
      "single proposer, lossy links: decision still learned at every swept "
      "rate (fair-lossy tolerance), latency in Δ");
  for (const auto& s : systems) {
    if (!s.consensus) continue;
    for (const double p : kLossRates) {
      const ConsensusRow r = consensus_latency_under_loss(s.sys, p, 12);
      rqs::bench::print_row(
          s.label + "  p=" + fmt(p * 100) + "%",
          "learned " + std::to_string(r.learned) + "/" +
              std::to_string(r.runs) + "  p50/p99=" + fmt(r.learn_p50) +
              "/" + fmt(r.learn_p99) + "Δ");
    }
  }

  rqs::bench::print_header(
      "E23c: time-to-recover after a 50Δ total blackout",
      "recovery is bounded by the backoff ladder's next rung after the "
      "heal, not by the outage length");
  for (const auto& s : systems) {
    const sim::SimTime w = storage_blackout_recovery(s.sys);
    rqs::bench::print_row(
        s.label + "  storage write",
        w < 0 ? "DID NOT RECOVER"
              : fmt(static_cast<double>(w) / static_cast<double>(kDelta)) +
                    "Δ after heal");
    if (!s.consensus) continue;
    const sim::SimTime l = consensus_blackout_recovery(s.sys);
    rqs::bench::print_row(
        s.label + "  consensus learn",
        l < 0 ? "DID NOT RECOVER"
              : fmt(static_cast<double>(l) / static_cast<double>(kDelta)) +
                    "Δ after heal");
  }
}

void BM_StorageWriteUnderLoss(benchmark::State& state) {
  const RefinedQuorumSystem sys = make_fig1_fast5();
  const double p = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    storage::StorageClusterConfig cfg;
    cfg.reader_count = 1;
    cfg.retry = armed(kSeed);
    storage::StorageCluster c(sys, cfg);
    if (p > 0.0) c.network().set_loss(p, kSeed);
    for (Value v = 1; v <= 8; ++v) c.blocking_write(v);
    benchmark::DoNotOptimize(c.sim().now());
  }
}
BENCHMARK(BM_StorageWriteUnderLoss)->Arg(0)->Arg(25)->Arg(50);

void BM_BlackoutRecovery(benchmark::State& state) {
  const RefinedQuorumSystem sys = make_3t1_instantiation(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage_blackout_recovery(sys));
  }
}
BENCHMARK(BM_BlackoutRecovery);

}  // namespace
}  // namespace rqs

RQS_BENCH_MAIN(rqs::print_tables)
