// Workload `ladder`: the paper's latency ladder on the 3t+1 instantiation
// at t = 1, 2, 3 (n = 4 / 7 / 10 with 5 / 29 / 176 quorums).
//
// Storage cells run write+read pairs on one key: all servers up (`up`,
// class 1: 1 round each) and servers 0..t-1 crashed (`crash`, class 2:
// the write takes 2 rounds, the read 1). Consensus cells run single-shot
// instances, each on a fresh ConsensusCluster with 2 proposers and 1
// learner: all up (`fast`), Byzantine proposer 0 forcing a view change
// (`byz_leader`), acceptors 0..t-1 Byzantine (`byz_acceptors`) and
// acceptors 0..t-1 crashed (`crash`). Simulated latency is fixed per cell,
// so it is checked, not timed; the timings are CPU cost on one thread.
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "consensus/harness.hpp"
#include "core/constructions.hpp"
#include "obs/observer.hpp"
#include "storage/harness.hpp"

namespace perfbench {
namespace {

namespace sim = rqs::sim;
namespace storage = rqs::storage;
namespace consensus = rqs::consensus;
using rqs::ProcessSet;
using rqs::RefinedQuorumSystem;
using rqs::Value;

// Pairs per storage cell and instances per consensus cell, per pass. Every
// storage cell runs the same count and so does every consensus cell; the
// two counts differ so that the storage and the consensus halves of a
// pass take wall time of the same order (one t = 3 instance costs about
// as much as twenty t = 3 storage pairs), and a change to either half
// moves pass_s.
constexpr std::size_t kPairs = 150;
constexpr std::size_t kInstances = 4;
constexpr sim::SimTime kDeadlineDeltas = 4000;
constexpr std::size_t kTs = 3;

enum StorageCell : std::size_t { kUp, kStorageCrash, kStorageCells };
enum ConsensusCell : std::size_t {
  kFast,
  kByzLeader,
  kByzAcceptors,
  kConsensusCrash,
  kConsensusCells
};
constexpr const char* kStorageNames[kStorageCells] = {"up", "crash"};
constexpr const char* kConsensusNames[kConsensusCells] = {
    "fast", "byz_leader", "byz_acceptors", "crash"};

// The ladder the paper proves, per cell: write rounds (reads take one
// round in both storage cells) and learn delays in Δ.
constexpr rqs::RoundNumber kWriteRounds[kStorageCells] = {1, 2};
constexpr sim::SimTime kLearnDelays[kConsensusCells] = {2, 11, 2, 3};

struct Ladder {
  std::vector<RefinedQuorumSystem> sys;  // index t - 1
};

consensus::ClusterConfig cluster_config(ConsensusCell cell, std::size_t t) {
  consensus::ClusterConfig cfg;
  cfg.proposer_count = 2;
  cfg.learner_count = 1;
  if (cell == kByzLeader) cfg.byzantine_proposer = true;
  if (cell == kByzAcceptors) cfg.byzantine_acceptors = ProcessSet::universe(t);
  return cfg;
}

std::unique_ptr<Ladder> build(Tracer* tr) {
  auto l = std::make_unique<Ladder>();
  for (std::size_t t = 1; t <= kTs; ++t) {
    {
      Scope s(tr, "core.build", 0);
      l->sys.push_back(rqs::make_3t1_instantiation(t));
    }
    // Set-up also builds one storage and one consensus cluster per t, so
    // that work moved into cluster construction shows in setup_s too.
    const storage::StorageCluster sc(l->sys.back(), storage::StorageClusterConfig{});
    const consensus::ConsensusCluster cc(l->sys.back(), cluster_config(kFast, t));
  }
  return l;
}

/// Samples and exact counts gathered over the untraced passes.
struct Tally {
  std::vector<double> write_us[kTs][kStorageCells];
  std::vector<double> read_us[kTs][kStorageCells];
  std::vector<double> decide_us[kTs][kConsensusCells];
  double storage_wall_s{0};
  double consensus_wall_s{0};
  std::uint64_t writes{0}, reads{0}, instances{0};
  std::uint64_t steps_write{0}, steps_read{0}, steps_decision{0};
  std::uint64_t sent_storage{0}, delivered_storage{0};
  std::uint64_t delivered_consensus{0};
};

/// Steps the simulation in the benchmark's own loop until `done()`; one
/// sim.step span per Simulation::step() when traced.
template <class Done>
std::uint64_t drive(sim::Simulation& s, Tracer* tr, std::uint64_t req, Done&& done) {
  std::uint64_t steps = 0;
  while (!done()) {
    Scope span(tr, "sim.step", req);
    if (!s.step()) break;
    ++steps;
  }
  return steps;
}

void storage_cell(const Ladder& l, std::size_t t, StorageCell cell, std::size_t round,
                  Tracer* tr, Tally& tally, Report& rep) {
  const std::int64_t cell_start = now_ns();
  storage::StorageCluster c(l.sys[t - 1], storage::StorageClusterConfig{});
  if (cell == kStorageCrash) {
    for (rqs::ProcessId id = 0; id < t; ++id) c.crash(id);
  }
  const std::string where = "storage t" + std::to_string(t) + " " + kStorageNames[cell];
  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto v = static_cast<Value>(round * kPairs + i + 1);
    const std::uint64_t sent0 = c.network().messages_sent();
    const std::uint64_t del0 = c.sim().messages_delivered();

    std::uint64_t req = tr ? tr->new_request() : 0;
    std::int64_t t0 = now_ns();
    std::uint64_t wsteps = 0;
    {
      Scope op(tr, "storage.write", req);
      {
        Scope inv(tr, "storage.invoke", req);
        c.async_write(v);
      }
      wsteps = drive(c.sim(), tr, req, [&] { return c.write_done(); });
    }
    std::int64_t t1 = now_ns();
    rep.unit(c.write_done() && c.writer().last_write_rounds() == kWriteRounds[cell],
             [&] {
               return where + ": write " + std::to_string(v) + " took " +
                      std::to_string(c.writer().last_write_rounds()) + " rounds";
             });
    if (!tr) tally.write_us[t - 1][cell].push_back(static_cast<double>(t1 - t0) * 1e-3);

    req = tr ? tr->new_request() : 0;
    t0 = now_ns();
    std::uint64_t rsteps = 0;
    {
      Scope op(tr, "storage.read", req);
      {
        Scope inv(tr, "storage.invoke", req);
        c.async_read(0);
      }
      rsteps = drive(c.sim(), tr, req, [&] { return c.read_done(0); });
    }
    t1 = now_ns();
    rep.unit(c.read_done(0) && c.last_read_value(0) == v &&
                 c.reader(0).last_read_rounds() == 1,
             [&] {
               return where + ": read after write " + std::to_string(v) +
                      " returned " + std::to_string(c.last_read_value(0));
             });
    if (!tr) {
      tally.read_us[t - 1][cell].push_back(static_cast<double>(t1 - t0) * 1e-3);
      tally.writes += 1;
      tally.reads += 1;
      tally.steps_write += wsteps;
      tally.steps_read += rsteps;
      tally.sent_storage += c.network().messages_sent() - sent0;
      tally.delivered_storage += c.sim().messages_delivered() - del0;
    }
  }
  bool atomic = false;
  {
    Scope s(tr, "storage.atomicity_check", tr ? tr->new_request() : 0);
    atomic = c.checker(0).check().atomic;
  }
  if (!atomic) rep.fail(where + ": history is not atomic");
  if (!tr) tally.storage_wall_s += static_cast<double>(now_ns() - cell_start) * 1e-9;
}

void consensus_cell(const Ladder& l, std::size_t t, ConsensusCell cell, std::size_t round,
                    Tracer* tr, rqs::obs::Observer& ob, Tally& tally, Report& rep) {
  const std::int64_t cell_start = now_ns();
  const std::string where =
      "consensus t" + std::to_string(t) + " " + kConsensusNames[cell];
  for (std::size_t i = 0; i < kInstances; ++i) {
    const auto v = static_cast<Value>(round * kInstances + i + 1);
    const std::uint64_t req = tr ? tr->new_request() : 0;
    const std::int64_t t0 = now_ns();
    std::optional<consensus::ConsensusCluster> c;
    std::uint64_t steps = 0;
    {
      Scope inst(tr, "consensus.instance", req);
      {
        Scope b(tr, "consensus.build", req);
        c.emplace(l.sys[t - 1], cluster_config(cell, t));
      }
      if (cell == kConsensusCrash) {
        for (rqs::ProcessId id = 0; id < t; ++id) c->sim().crash(id);
      }
      if (tr) c->sim().set_observer(&ob);
      {
        Scope p(tr, "consensus.propose", req);
        c->propose(0, v);
        // The honest proposer 1 takes over once the Byzantine leader's
        // view is suspected.
        if (cell == kByzLeader) c->propose(1, v);
      }
      sim::Simulation& s = c->sim();
      const sim::SimTime deadline = s.now() + kDeadlineDeltas * s.delta();
      steps = drive(s, tr, req, [&] {
        return c->learner(0).learned() || s.idle() || s.now() > deadline;
      });
    }
    const std::int64_t t1 = now_ns();
    const auto delays = c->learn_delays(0);
    const auto agreed = c->agreed_value();
    rep.unit(c->learner(0).learned() && agreed == v && delays == kLearnDelays[cell],
             [&] {
               return where + ": instance " + std::to_string(v) + " learned " +
                      (agreed ? std::to_string(*agreed) : "nothing") + " after " +
                      (delays ? std::to_string(*delays) : "-") + " delays";
             });
    if (!tr) {
      tally.decide_us[t - 1][cell].push_back(static_cast<double>(t1 - t0) * 1e-3);
      tally.instances += 1;
      tally.steps_decision += steps;
      tally.delivered_consensus += c->sim().messages_delivered();
    }
  }
  if (!tr) tally.consensus_wall_s += static_cast<double>(now_ns() - cell_start) * 1e-9;
}

}  // namespace

void run_ladder(const RunOptions& o, Tracer& tr, Report& rep) {
  Tally tally;
  rqs::obs::Observer ob;  // attached to traced instances only
  const auto l = run_workload(
      o, tr, rep, [&] { return build(o.trace ? &tr : nullptr); },
      [&](const Ladder& lad, Tracer* t, std::size_t round) {
        for (std::size_t ti = 1; ti <= kTs; ++ti) {
          for (std::size_t cell = 0; cell < kStorageCells; ++cell) {
            storage_cell(lad, ti, static_cast<StorageCell>(cell), round, t, tally, rep);
          }
        }
        for (std::size_t ti = 1; ti <= kTs; ++ti) {
          for (std::size_t cell = 0; cell < kConsensusCells; ++cell) {
            consensus_cell(lad, ti, static_cast<ConsensusCell>(cell), round, t, ob, tally,
                           rep);
          }
        }
      });

  // The workload's own end-to-end figures and per-cell timings (untraced
  // passes only).
  std::vector<double> storage_us, decide_us;
  for (std::size_t t = 0; t < kTs; ++t) {
    for (std::size_t c = 0; c < kStorageCells; ++c) {
      storage_us.insert(storage_us.end(), tally.write_us[t][c].begin(),
                        tally.write_us[t][c].end());
      storage_us.insert(storage_us.end(), tally.read_us[t][c].begin(),
                        tally.read_us[t][c].end());
      const std::string cell = ".t" + std::to_string(t + 1) + "." + kStorageNames[c];
      report_percentiles("storage.write" + cell, tally.write_us[t][c], rep);
      report_percentiles("storage.read" + cell, tally.read_us[t][c], rep);
    }
    for (std::size_t c = 0; c < kConsensusCells; ++c) {
      decide_us.insert(decide_us.end(), tally.decide_us[t][c].begin(),
                       tally.decide_us[t][c].end());
      report_percentiles(
          "consensus.decide.t" + std::to_string(t + 1) + "." + kConsensusNames[c],
          tally.decide_us[t][c], rep);
    }
  }
  const double ops = static_cast<double>(tally.writes + tally.reads);
  const double inst = static_cast<double>(tally.instances);
  rep.metrics["storage_ops_per_s"] = ratio(ops, tally.storage_wall_s);
  rep.metrics["storage_op_p99_us"] = percentile(storage_us, 99);
  rep.samples["storage_op_p99_us"] = storage_us.size();
  rep.metrics["consensus_decisions_per_s"] = ratio(inst, tally.consensus_wall_s);
  rep.metrics["consensus_decide_p99_us"] = percentile(decide_us, 99);
  rep.samples["consensus_decide_p99_us"] = decide_us.size();

  rep.metrics["storage.quorum_scaling"] = ratio(rep.metrics["storage.read.t3.up.p50_us"],
                                                rep.metrics["storage.read.t1.up.p50_us"]);
  rep.metrics["consensus.quorum_scaling"] =
      ratio(rep.metrics["consensus.decide.t3.fast.p50_us"],
            rep.metrics["consensus.decide.t1.fast.p50_us"]);

  // Exact work counts: a function of the fixed inputs, equal in every pass.
  std::uint64_t quorums = 0;
  for (const auto& s : l->sys) quorums += s.quorum_count();
  rep.count("core.quorums", quorums);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  rep.count("sim.steps_per_write", ratio(d(tally.steps_write), d(tally.writes)));
  rep.count("sim.steps_per_read", ratio(d(tally.steps_read), d(tally.reads)));
  rep.count("sim.steps_per_decision", ratio(d(tally.steps_decision), inst));
  rep.count("sim.sent_per_op", ratio(d(tally.sent_storage), ops));
  rep.count("sim.delivered_per_op", ratio(d(tally.delivered_storage), ops));
  rep.count("consensus.delivered_per_decision", ratio(d(tally.delivered_consensus), inst));

  if (o.trace) {
    rep.metrics["core.build_us"] = tr.mean("core.build", 1e3);
    rep.metrics["storage.invoke_us"] = tr.mean("storage.invoke", 1e3);
    rep.metrics["storage.atomicity_check_us"] = tr.mean("storage.atomicity_check", 1e3);
    rep.metrics["sim.step_ns"] = tr.mean("sim.step", 1.0);
    rep.metrics["consensus.build_us"] = tr.mean("consensus.build", 1e3);
    const rqs::obs::MetricsSnapshot snap = ob.snapshot();
    const double traced_instances =
        static_cast<double>(tr.totals("consensus.instance").count);
    rep.metrics["consensus.view_changes_per_decision"] =
        ratio(static_cast<double>(snap.counter("consensus.view_change")), traced_instances);
    const double slow = static_cast<double>(snap.counter("consensus.propose.slow_path"));
    rep.metrics["consensus.slow_path_share"] =
        ratio(slow, slow + static_cast<double>(snap.counter("consensus.propose.fast_path")));
  }
}

}  // namespace perfbench
