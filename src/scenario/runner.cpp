#include "scenario/runner.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/fnv.hpp"
#include "obs/format.hpp"
#include "obs/observer.hpp"
#include "scenario/deployment.hpp"

namespace rqs::scenario {

namespace {

/// Builds the observer a run attaches (if any): the external one from the
/// options, or a per-run one when metrics/tracing were requested. The
/// returned unique_ptr owns the per-run case.
std::unique_ptr<obs::Observer> make_run_observer(
    const ScenarioRunner::Options& opts, obs::Observer*& attach) {
  if (opts.observer != nullptr) {
    attach = opts.observer;
    return nullptr;
  }
  if (!opts.collect_metrics && opts.trace_capacity == 0) {
    attach = nullptr;
    return nullptr;
  }
  auto owned = std::make_unique<obs::Observer>(opts.trace_capacity);
  attach = owned.get();
  return owned;
}

/// Folds an attached observer's results into the scenario result.
void harvest_observer(const obs::Observer* ob, ScenarioResult& res) {
  if (ob == nullptr) return;
  res.metrics = ob->snapshot();
  res.events_digest = ob->events_digest();
}

/// Sorted schedule with original positions, so equal-time entries keep
/// their spec order (the simulator's FIFO tie-break does the rest).
std::vector<ScheduleEntry> sorted_schedule(const ScenarioSpec& spec) {
  std::vector<ScheduleEntry> entries = spec.schedule;
  std::stable_sort(entries.begin(), entries.end(),
                   [](const ScheduleEntry& a, const ScheduleEntry& b) {
                     return a.at < b.at;
                   });
  return entries;
}

/// Servers a client can rely on for the rest of the run, for the liveness
/// predicate: the intersection of every visibility restriction the client's
/// operations impose from `entry_pos` on, minus anything a partition that
/// overlaps [invoked, inf) cuts away. Conservative in the right direction —
/// the runner only *claims* liveness when a correct quorum survives this.
ProcessSet client_reachable(const std::vector<ScheduleEntry>& entries,
                            ProcessSet servers, ProcessId client_id,
                            ScheduleEntry::Kind kind, std::size_t client,
                            ObjectId key, std::size_t entry_pos,
                            sim::SimTime invoked) {
  ProcessSet vis = servers;
  for (std::size_t j = entry_pos; j < entries.size(); ++j) {
    const ScheduleEntry& e = entries[j];
    if (e.kind == kind && e.client == client && e.key == key &&
        !e.reachable.empty()) {
      vis &= e.reachable;
    }
  }
  for (const ScheduleEntry& e : entries) {
    if (e.kind != ScheduleEntry::Kind::kPartition) continue;
    if (e.until != ScheduleEntry::kForever && e.until <= invoked) continue;
    if (e.side_a.contains(client_id)) vis -= e.side_b;
    if (e.side_b.contains(client_id)) vis -= e.side_a;
  }
  return vis;
}

bool has_permanent_window(const std::vector<ScheduleEntry>& entries,
                          ScheduleEntry::Kind k) {
  return std::any_of(entries.begin(), entries.end(), [k](const ScheduleEntry& e) {
    return e.kind == k && e.until == ScheduleEntry::kForever;
  });
}

/// A loss window the retransmission layer cannot outlive: permanent *and*
/// total. Finite windows end (the next retransmission after `until` gets
/// through) and sub-1.0 probabilities let independent per-send draws
/// eventually succeed, so neither voids the paper's termination claims once
/// the runner arms the retry layer.
bool has_unrecoverable_loss(const std::vector<ScheduleEntry>& entries) {
  return std::any_of(entries.begin(), entries.end(), [](const ScheduleEntry& e) {
    return e.kind == ScheduleEntry::Kind::kLoss &&
           e.until == ScheduleEntry::kForever && e.probability >= 1.0;
  });
}

ProcessSet crash_targets(const std::vector<ScheduleEntry>& entries,
                         std::size_t universe) {
  ProcessSet out;
  for (const ScheduleEntry& e : entries) {
    if (e.kind == ScheduleEntry::Kind::kCrash && e.target < universe) {
      out.insert(e.target);
    }
  }
  return out;
}

/// The storage part of a run: its cluster (whose log holds the operations
/// the entries started), the per-key atomicity and liveness verdicts and
/// the digest of the per-key histories.
struct StoragePart {
  /// Virtual Deltas the run is driven past the last scheduled time, so
  /// delayed messages and retries settle before verdicts.
  static constexpr sim::SimTime kDrainDeltas = 400;

  storage::StorageCluster cluster;
  VisibilityRules visibility;
  /// The sorted-schedule position of each entry in cluster.operations().
  std::vector<std::size_t> entry_pos;

  StoragePart(const ScenarioSpec& spec, const ScenarioRunner::Options& opts)
      : cluster(materialize(spec.family),
                [&] {
                  storage::StorageClusterConfig cfg = storage_config(spec);
                  cfg.compact_history = opts.compact_history;
                  return cfg;
                }()),
        visibility(cluster.network(), cluster.server_set()) {}

  bool start(const ScheduleEntry& e, std::size_t pos) {
    if (!start_storage_op(cluster, visibility, e)) return false;
    entry_pos.push_back(pos);
    return true;
  }

  void judge(const ScenarioSpec& spec,
             const std::vector<ScheduleEntry>& entries, ProcessSet correct,
             bool spec_valid, ScenarioResult& res) {
    const auto& ops = cluster.operations();
    res.ops_started = ops.size();
    for (const auto& op : ops) {
      if (op.completed()) {
        ++res.ops_completed;
      } else if (op.is_write) {
        cluster.checker(op.key).add_pending_write(op.invoked_at, op.value);
      }
    }

    // Safety: every key's complete history (with its pending write, if any)
    // must be atomic — unconditionally, even for invalid specs (that is the
    // point of planted-bug scenarios).
    for (ObjectId key = 0; key < spec.key_count; ++key) {
      const auto atomicity = cluster.checker(key).check();
      for (const std::string& v : atomicity.violations) {
        res.violations.push_back(
            spec.key_count == 1
                ? "atomicity: " + v
                : "atomicity key " + std::to_string(key) + ": " + v);
      }
    }

    // Liveness, only where Theorem 2-style termination applies: valid RQS,
    // Byzantine coalition inside B, and links that eventually deliver. With
    // the retry layer armed for fault-scheduled specs, finite loss windows
    // and sub-1.0 drop probabilities are recoverable; only a permanent total
    // blackout voids the claim.
    if (!spec_valid || has_unrecoverable_loss(entries) ||
        has_permanent_window(entries, ScheduleEntry::Kind::kAsynchrony)) {
      return;
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto& op = ops[i];
      const auto kind =
          op.is_write ? ScheduleEntry::Kind::kWrite : ScheduleEntry::Kind::kRead;
      // A write's reader field is 0: the liveness predicate matches on it.
      const ProcessId client_id =
          op.is_write
              ? storage::writer_client_id(op.key, spec.reader_count)
              : storage::reader_client_id(op.key, op.reader, spec.reader_count);
      const ProcessSet vis =
          client_reachable(entries, cluster.server_set(), client_id, kind,
                           op.reader, op.key, entry_pos[i], op.invoked_at);
      if (!cluster.rqs().has_quorum_in(vis & correct)) continue;  // no promise
      ++res.liveness_checked;
      if (!op.completed()) {
        res.violations.push_back(
            "liveness: " + entries[entry_pos[i]].to_string() +
            " has a correct reachable quorum but never completed");
      }
    }
  }

  void digest(Fnv64& h) {
    for (ObjectId key = 0; key < cluster.key_count(); ++key) {
      h.mix(key);
      for (const auto& w : cluster.checker(key).writes()) {
        h.mix(static_cast<std::uint64_t>(w.invoked));
        h.mix(static_cast<std::uint64_t>(w.responded));
        h.mix(static_cast<std::uint64_t>(w.value));
      }
      for (const auto& r : cluster.checker(key).reads()) {
        h.mix(static_cast<std::uint64_t>(r.invoked));
        h.mix(static_cast<std::uint64_t>(r.responded));
        h.mix(static_cast<std::uint64_t>(r.value));
      }
    }
  }
};

/// The consensus part of a run: its cluster, the proposals its entries
/// started, the agreement, validity and termination verdicts and the
/// digest of what learners learned and acceptors decided.
struct ConsensusPart {
  /// Virtual Deltas the run is driven past the last scheduled time, so
  /// delayed messages, view changes and retries settle before verdicts.
  static constexpr sim::SimTime kDrainDeltas = 2000;

  /// One started proposal: who proposed what.
  struct Proposal {
    std::size_t client{0};
    Value value{kBottom};
  };

  consensus::ConsensusCluster cluster;
  std::vector<Proposal> proposals;
  std::vector<bool> proposed;

  ConsensusPart(const ScenarioSpec& spec, const ScenarioRunner::Options&)
      : cluster(materialize(spec.family), consensus_config(spec)),
        proposed(spec.proposer_count, false) {}

  bool start(const ScheduleEntry& e, std::size_t /*pos*/) {
    if (e.kind != ScheduleEntry::Kind::kPropose ||
        e.client >= proposed.size() || proposed[e.client]) {
      return false;
    }
    proposed[e.client] = true;
    proposals.push_back({e.client, e.value});
    cluster.propose(e.client, e.value);
    return true;
  }

  void judge(const ScenarioSpec& spec,
             const std::vector<ScheduleEntry>& entries, ProcessSet correct,
             bool spec_valid, ScenarioResult& res) {
    // Consensus "operations" are the learners' learn events (proposals have
    // no response step of their own).
    res.ops_started = spec.learner_count;

    // Agreement: every learned value and every correct acceptor's decision
    // must coincide — unconditionally.
    std::optional<Value> learned;
    bool disagree = false;
    for (std::size_t i = 0; i < spec.learner_count; ++i) {
      if (!cluster.learner(i).learned()) continue;
      const Value v = cluster.learner(i).learned_value();
      if (learned && *learned != v) disagree = true;
      learned = v;
    }
    std::optional<Value> decided;
    const ProcessSet byz = coalition(spec);
    for (ProcessId a = 0; a < cluster.rqs().universe_size(); ++a) {
      if (byz.contains(a)) continue;
      if (!cluster.acceptor(a).decided()) continue;
      const Value v = cluster.acceptor(a).decision();
      if (decided && *decided != v) disagree = true;
      if (learned && *learned != v) disagree = true;
      decided = v;
    }
    if (disagree) {
      res.violations.push_back("agreement: learners/acceptors decided different values");
    }

    // Validity: with the coalition inside B, a decided value must have been
    // proposed (Byzantine proposers may also push their second value).
    if (spec_valid) {
      auto allowed = [&](Value v) {
        if (spec.byzantine_proposer && v == spec.fake_value) return true;
        return std::any_of(proposals.begin(), proposals.end(),
                           [v](const Proposal& p) { return p.value == v; });
      };
      if (learned && !allowed(*learned)) {
        res.violations.push_back("validity: learned never-proposed value " +
                                 value_to_string(*learned));
      }
      if (decided && !allowed(*decided)) {
        res.violations.push_back("validity: decided never-proposed value " +
                                 value_to_string(*decided));
      }
    }

    // Termination: promised once a correct proposer has proposed, the
    // Byzantine coalition is inside B, partitions and asynchrony windows are
    // bounded and a fully-correct quorum remains (view changes and the
    // learners' pull timers recover from those). Message loss used to void
    // the claim entirely — the send-once proposal could be swallowed for
    // good. With the retry layer armed for fault-scheduled specs, proposers
    // retransmit until decisions quorum up, so only a permanent total
    // blackout still voids termination; finite windows and sub-1.0 drop
    // probabilities are recovered from.
    const bool correct_proposed = std::any_of(
        proposals.begin(), proposals.end(), [&](const Proposal& p) {
          return !(spec.byzantine_proposer && p.client == 0);
        });
    if (spec_valid && correct_proposed && !has_unrecoverable_loss(entries) &&
        !has_permanent_window(entries, ScheduleEntry::Kind::kPartition) &&
        !has_permanent_window(entries, ScheduleEntry::Kind::kAsynchrony) &&
        cluster.rqs().has_quorum_in(correct)) {
      for (std::size_t i = 0; i < spec.learner_count; ++i) {
        ++res.liveness_checked;
        if (!cluster.learner(i).learned()) {
          res.violations.push_back("liveness: learner " + std::to_string(i) +
                                   " never learned despite a correct quorum");
        }
      }
    }
    for (std::size_t i = 0; i < spec.learner_count; ++i) {
      if (cluster.learner(i).learned()) ++res.ops_completed;
    }
  }

  void digest(Fnv64& h) {
    for (std::size_t i = 0; i < cluster.learner_count(); ++i) {
      const bool l = cluster.learner(i).learned();
      h.mix(l ? 1 : 0);
      h.mix(l ? static_cast<std::uint64_t>(cluster.learner(i).learned_value()) : 0);
      h.mix(l ? static_cast<std::uint64_t>(cluster.learner(i).learn_time()) : 0);
    }
    for (ProcessId a = 0; a < cluster.rqs().universe_size(); ++a) {
      const bool d = cluster.acceptor(a).decided();
      h.mix(d ? 1 : 0);
      h.mix(d ? static_cast<std::uint64_t>(cluster.acceptor(a).decision()) : 0);
    }
  }
};

/// The run skeleton both protocols share: deploy, attach the observer,
/// schedule the sorted entries (faults through apply_fault_entry, the rest
/// through the part), drain, judge and frame the digest.
template <typename Part>
ScenarioResult run_part(const ScenarioSpec& spec,
                        const ScenarioRunner::Options& opts) {
  ScenarioResult res;
  const std::vector<ScheduleEntry> entries = sorted_schedule(spec);
  Part part(spec, opts);
  sim::Simulation& sim = part.cluster.sim();
  obs::Observer* ob = nullptr;
  const std::unique_ptr<obs::Observer> owned_ob = make_run_observer(opts, ob);
  if (ob != nullptr) sim.set_observer(ob);

  const std::size_t n = part.cluster.rqs().universe_size();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ScheduleEntry& e = entries[i];
    sim.schedule_at(e.at, [&, i, e] {
      if (!apply_fault_entry(sim, e, n, spec.seed) && !part.start(e, i)) {
        ++res.ops_skipped;
      }
    });
  }
  sim.run(spec.schedule_end() + Part::kDrainDeltas * sim.delta());
  res.end_time = sim.now();
  res.messages_delivered = sim.messages_delivered();

  const ProcessSet byz = coalition(spec);
  const bool spec_valid =
      family_valid(spec.family) && part.cluster.rqs().adversary().contains(byz);
  const ProcessSet correct =
      ProcessSet::universe(n) - crash_targets(entries, n) - byz;
  part.judge(spec, entries, correct, spec_valid, res);

  Fnv64 h;
  h.mix(static_cast<std::uint64_t>(spec.protocol));
  h.mix(static_cast<std::uint64_t>(spec.family));
  part.digest(h);
  h.mix(res.messages_delivered);
  h.mix(static_cast<std::uint64_t>(res.end_time));
  res.trace_digest = h.digest();
  harvest_observer(ob, res);
  return res;
}

}  // namespace

std::string ScenarioResult::to_string() const {
  std::string out = ok() ? "pass" : "FAIL";
  out += " (ops " + obs::format_fraction(ops_completed, ops_started) +
         ", digest " + obs::format_digest(trace_digest) + ")";
  for (const std::string& v : violations) out += "\n  " + v;
  return out;
}

ScenarioResult ScenarioRunner::run(const ScenarioSpec& spec) const {
  return spec.protocol == Protocol::kStorage
             ? run_part<StoragePart>(spec, opts_)
             : run_part<ConsensusPart>(spec, opts_);
}

}  // namespace rqs::scenario
