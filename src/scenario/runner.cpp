#include "scenario/runner.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "common/fnv.hpp"
#include "common/retry.hpp"
#include "consensus/harness.hpp"
#include "obs/format.hpp"
#include "obs/observer.hpp"
#include "sim/network.hpp"
#include "storage/harness.hpp"

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

/// One started client operation, as the runner tracked it.
struct OpRecord {
  ScheduleEntry::Kind kind{ScheduleEntry::Kind::kWrite};
  std::size_t client{0};     // reader/proposer index; unused for writes
  ObjectId key{0};           // storage: the register operated on
  std::size_t entry_pos{0};  // position in the *sorted* schedule
  sim::SimTime invoked{0};
  Value value{kBottom};
  bool completed{false};
};

/// Replaceable per-client visibility blocks: each kWrite/kRead entry with a
/// restricted `reachable` set supersedes the client's previous restriction.
class VisibilityRules {
 public:
  VisibilityRules(sim::Network& net, ProcessSet servers)
      : net_(net), servers_(servers) {}

  void apply(ProcessId client, ProcessSet reachable) {
    const auto it = installed_.find(client);
    if (it != installed_.end()) {
      net_.remove_rule(it->second.first);
      net_.remove_rule(it->second.second);
      installed_.erase(it);
    }
    if (reachable.empty() || servers_.subset_of(reachable)) return;
    const ProcessSet hidden = servers_ - reachable;
    const std::size_t out = net_.block(ProcessSet::single(client), hidden);
    const std::size_t in = net_.block(hidden, ProcessSet::single(client));
    installed_[client] = {out, in};
  }

 private:
  sim::Network& net_;
  ProcessSet servers_;
  std::map<ProcessId, std::pair<std::size_t, std::size_t>> installed_;
};

/// Salts separating the per-link loss and duplication draw streams derived
/// from one spec seed.
constexpr std::uint64_t kLossSeedSalt = 0x10551055cafef00dULL;
constexpr std::uint64_t kDupSeedSalt = 0xd0b1e0d0b1e5eedULL;

/// Installs the fault entries shared by both protocols. Returns false if
/// the entry kind is a client operation the caller must handle.
bool apply_fault_entry(sim::Simulation& sim, const ScheduleEntry& e,
                       std::size_t universe, std::uint64_t seed) {
  sim::Network& net = sim.network();
  switch (e.kind) {
    case ScheduleEntry::Kind::kCrash:
      if (e.target < universe) sim.crash(e.target);
      return true;
    case ScheduleEntry::Kind::kPartition: {
      const std::size_t r1 = net.block(e.side_a, e.side_b);
      const std::size_t r2 = net.block(e.side_b, e.side_a);
      if (e.until != ScheduleEntry::kForever) {
        sim.schedule_at(e.until, [&net, r1, r2] {
          net.remove_rule(r1);
          net.remove_rule(r2);
        });
      }
      return true;
    }
    case ScheduleEntry::Kind::kAsynchrony: {
      // Raise the *default* delay rather than installing a rule: rules are
      // consulted newest-first, so a rule would shadow active partitions
      // and visibility blocks. Drops must keep winning; asynchrony only
      // slows the messages that would have been delivered anyway.
      // (Overlapping windows restore in schedule order; the generator
      // emits at most one window per scenario.)
      const sim::SimTime previous = net.default_delay();
      net.set_default_delay(e.delay);
      if (e.until != ScheduleEntry::kForever) {
        sim.schedule_at(e.until,
                        [&net, previous] { net.set_default_delay(previous); });
      }
      return true;
    }
    case ScheduleEntry::Kind::kLoss: {
      // Counter-based per-link draw streams (Network::set_loss): the k-th
      // send on a link always consumes the same draw, so the drop pattern
      // is a pure function of (seed, link, send ordinal) — independent of
      // how other links interleave. Overlapping windows would clobber each
      // other's probability; like asynchrony, the generator emits at most
      // one window per scenario and restores run in schedule order.
      const std::uint64_t loss_seed = seed ^ kLossSeedSalt;
      net.set_loss(e.probability, loss_seed);
      if (e.until != ScheduleEntry::kForever) {
        sim.schedule_at(e.until,
                        [&net, loss_seed] { net.set_loss(0.0, loss_seed); });
      }
      return true;
    }
    case ScheduleEntry::Kind::kDuplicate: {
      const std::uint64_t dup_seed = seed ^ kDupSeedSalt;
      net.set_duplication(e.probability, dup_seed);
      if (e.until != ScheduleEntry::kForever) {
        sim.schedule_at(e.until, [&net, dup_seed] {
          net.set_duplication(0.0, dup_seed);
        });
      }
      return true;
    }
    default:
      return false;
  }
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

bool has_entry(const std::vector<ScheduleEntry>& entries, ScheduleEntry::Kind k) {
  return std::any_of(entries.begin(), entries.end(),
                     [k](const ScheduleEntry& e) { return e.kind == k; });
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

/// True iff the spec schedules message-level faults (loss or duplication);
/// exactly then does the runner arm the retry/dedup layer. Loss-free specs
/// keep it disabled so their trace digests stay byte-identical to the
/// send-once automata.
bool has_message_faults(const std::vector<ScheduleEntry>& entries) {
  return has_entry(entries, ScheduleEntry::Kind::kLoss) ||
         has_entry(entries, ScheduleEntry::Kind::kDuplicate);
}

/// Retry policy the runner arms for fault-scheduled specs: backoff from the
/// harness default (4 Delta) and failover / give-up after four
/// retransmissions of the same round.
RetryPolicy::Config armed_retry(const ScenarioSpec& spec) {
  RetryPolicy::Config retry;
  retry.enabled = true;
  retry.max_attempts = 4;
  retry.seed = spec.seed;
  return retry;
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

}  // namespace

std::string ScenarioResult::to_string() const {
  std::string out = ok() ? "pass" : "FAIL";
  out += " (ops " + obs::format_fraction(ops_completed, ops_started) +
         ", digest " + obs::format_digest(trace_digest) + ")";
  for (const std::string& v : violations) out += "\n  " + v;
  return out;
}

ScenarioResult ScenarioRunner::run(const ScenarioSpec& spec) const {
  return spec.protocol == Protocol::kStorage ? run_storage(spec)
                                             : run_consensus(spec);
}

ScenarioResult ScenarioRunner::run_storage(const ScenarioSpec& spec) const {
  ScenarioResult res;
  RefinedQuorumSystem sys = materialize(spec.family);
  const std::size_t n = sys.universe_size();
  const ProcessSet servers = ProcessSet::universe(n);
  const ProcessSet byz =
      spec.role == FaultRole::kNone ? ProcessSet{} : spec.byzantine;

  const std::vector<ScheduleEntry> entries = sorted_schedule(spec);

  storage::StorageClusterConfig cfg;
  cfg.reader_count = spec.reader_count;
  cfg.key_count = spec.key_count;
  cfg.compact_history = opts_.compact_history;
  cfg.byzantine = byz;
  if (has_message_faults(entries)) cfg.retry = armed_retry(spec);
  switch (spec.role) {
    case FaultRole::kFabricator:
      cfg.forge = storage::ByzantineStorageServer::fabricate(
          TsValue{1000, spec.fake_value});
      break;
    case FaultRole::kEquivocator:
      cfg.forge = storage::ByzantineStorageServer::equivocate(
          TsValue{1000, spec.fake_value}, TsValue{1001, spec.fake_value - 1});
      break;
    default:
      break;  // null forge = forget_everything (amnesiac)
  }
  storage::StorageCluster cluster(sys, cfg);
  sim::Simulation& sim = cluster.sim();
  obs::Observer* ob = nullptr;
  const std::unique_ptr<obs::Observer> owned_ob = make_run_observer(opts_, ob);
  if (ob != nullptr) sim.set_observer(ob);

  VisibilityRules visibility(cluster.network(), servers);
  std::vector<OpRecord> ops;

  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ScheduleEntry& e = entries[i];
    sim.schedule_at(e.at, [&, i, e] {
      if (apply_fault_entry(sim, e, n, spec.seed)) return;
      switch (e.kind) {
        case ScheduleEntry::Kind::kWrite:
          if (e.key >= spec.key_count || !cluster.write_done(e.key)) {
            ++res.ops_skipped;
            return;
          }
          visibility.apply(storage::writer_client_id(e.key, spec.reader_count),
                           e.reachable);
          ops.push_back({e.kind, 0, e.key, i, sim.now(), e.value, false});
          cluster.async_write(e.key, e.value);
          break;
        case ScheduleEntry::Kind::kRead:
          if (e.key >= spec.key_count || e.client >= spec.reader_count ||
              !cluster.read_done(e.key, e.client)) {
            ++res.ops_skipped;
            return;
          }
          visibility.apply(
              storage::reader_client_id(e.key, e.client, spec.reader_count),
              e.reachable);
          ops.push_back({e.kind, e.client, e.key, i, sim.now(), kBottom, false});
          cluster.async_read(e.key, e.client);
          break;
        default:
          ++res.ops_skipped;  // kPropose in a storage scenario
          break;
      }
    });
  }

  const sim::SimTime deadline =
      spec.schedule_end() + opts_.storage_drain_deltas * sim.delta();
  sim.run(deadline);
  res.end_time = sim.now();
  res.messages_delivered = sim.messages_delivered();

  // Mark completions: ops of one client finish in order, so only each
  // client's last operation can still be in flight.
  for (OpRecord& op : ops) op.completed = true;
  for (ObjectId key = 0; key < spec.key_count; ++key) {
    if (cluster.write_done(key)) continue;
    for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
      if (it->kind == ScheduleEntry::Kind::kWrite && it->key == key) {
        it->completed = false;
        cluster.checker(key).add_pending_write(it->invoked, it->value);
        break;
      }
    }
  }
  for (ObjectId key = 0; key < spec.key_count; ++key) {
    for (std::size_t r = 0; r < spec.reader_count; ++r) {
      if (cluster.read_done(key, r)) continue;
      for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
        if (it->kind == ScheduleEntry::Kind::kRead && it->client == r &&
            it->key == key) {
          it->completed = false;
          break;
        }
      }
    }
  }
  res.ops_started = ops.size();
  for (const OpRecord& op : ops) res.ops_completed += op.completed ? 1 : 0;

  // Safety: every key's complete history (with its pending write, if any)
  // must be atomic — unconditionally, even for invalid specs (that is the
  // point of planted-bug scenarios).
  for (ObjectId key = 0; key < spec.key_count; ++key) {
    const auto atomicity = cluster.checker(key).check();
    for (const std::string& v : atomicity.violations) {
      res.violations.push_back(
          spec.key_count == 1 ? "atomicity: " + v
                              : "atomicity key " + std::to_string(key) + ": " + v);
    }
  }

  // Liveness, only where Theorem 2-style termination applies: valid RQS,
  // Byzantine coalition inside B, and links that eventually deliver. With
  // the retry layer armed for fault-scheduled specs, finite loss windows
  // and sub-1.0 drop probabilities are recoverable; only a permanent total
  // blackout voids the claim.
  const bool spec_valid = family_valid(spec.family) && sys.adversary().contains(byz);
  if (opts_.check_liveness && spec_valid && !has_unrecoverable_loss(entries) &&
      !has_permanent_window(entries, ScheduleEntry::Kind::kAsynchrony)) {
    const ProcessSet correct = servers - crash_targets(entries, n) - byz;
    for (const OpRecord& op : ops) {
      const ProcessId client_id =
          op.kind == ScheduleEntry::Kind::kWrite
              ? storage::writer_client_id(op.key, spec.reader_count)
              : storage::reader_client_id(op.key, op.client, spec.reader_count);
      const ProcessSet vis =
          client_reachable(entries, servers, client_id, op.kind, op.client,
                           op.key, op.entry_pos, op.invoked);
      if (!sys.has_quorum_in(vis & correct)) continue;  // nothing promised
      ++res.liveness_checked;
      if (!op.completed) {
        res.violations.push_back(
            "liveness: " + entries[op.entry_pos].to_string() +
            " has a correct reachable quorum but never completed");
      }
    }
  }

  Fnv64 h;
  h.mix(static_cast<std::uint64_t>(spec.protocol));
  h.mix(static_cast<std::uint64_t>(spec.family));
  for (ObjectId key = 0; key < spec.key_count; ++key) {
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
  h.mix(res.messages_delivered);
  h.mix(static_cast<std::uint64_t>(res.end_time));
  res.trace_digest = h.digest();
  harvest_observer(ob, res);
  return res;
}

ScenarioResult ScenarioRunner::run_consensus(const ScenarioSpec& spec) const {
  ScenarioResult res;
  RefinedQuorumSystem sys = materialize(spec.family);
  const std::size_t n = sys.universe_size();
  const ProcessSet byz =
      spec.role == FaultRole::kNone ? ProcessSet{} : spec.byzantine;

  const std::vector<ScheduleEntry> entries = sorted_schedule(spec);

  consensus::ClusterConfig cfg;
  cfg.proposer_count = spec.proposer_count;
  cfg.learner_count = spec.learner_count;
  cfg.fake_value = spec.fake_value;
  cfg.byzantine_proposer = spec.byzantine_proposer;
  if (has_message_faults(entries)) cfg.retry = armed_retry(spec);
  switch (spec.role) {
    case FaultRole::kAmnesiac: cfg.amnesiac_acceptors = byz; break;
    case FaultRole::kPrepLiar: cfg.prep_liar_acceptors = byz; break;
    default: cfg.byzantine_acceptors = byz; break;
  }
  consensus::ConsensusCluster cluster(sys, cfg);
  sim::Simulation& sim = cluster.sim();
  obs::Observer* ob = nullptr;
  const std::unique_ptr<obs::Observer> owned_ob = make_run_observer(opts_, ob);
  if (ob != nullptr) sim.set_observer(ob);

  std::vector<OpRecord> proposals;
  std::vector<bool> proposed(spec.proposer_count, false);

  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ScheduleEntry& e = entries[i];
    sim.schedule_at(e.at, [&, i, e] {
      if (apply_fault_entry(sim, e, n, spec.seed)) return;
      if (e.kind != ScheduleEntry::Kind::kPropose ||
          e.client >= spec.proposer_count || proposed[e.client]) {
        ++res.ops_skipped;
        return;
      }
      proposed[e.client] = true;
      proposals.push_back({e.kind, e.client, 0, i, sim.now(), e.value, false});
      cluster.propose(e.client, e.value);
    });
  }

  const sim::SimTime deadline =
      spec.schedule_end() + opts_.consensus_drain_deltas * sim.delta();
  sim.run(deadline);
  res.end_time = sim.now();
  res.messages_delivered = sim.messages_delivered();
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
  for (ProcessId a = 0; a < n; ++a) {
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

  const bool spec_valid = family_valid(spec.family) && sys.adversary().contains(byz);

  // Validity: with the coalition inside B, a decided value must have been
  // proposed (Byzantine proposers may also push their second value).
  if (spec_valid) {
    auto allowed = [&](Value v) {
      if (spec.byzantine_proposer && v == spec.fake_value) return true;
      return std::any_of(proposals.begin(), proposals.end(),
                         [v](const OpRecord& p) { return p.value == v; });
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
      proposals.begin(), proposals.end(), [&](const OpRecord& p) {
        return !(spec.byzantine_proposer && p.client == 0);
      });
  const ProcessSet correct = ProcessSet::universe(n) - crash_targets(entries, n) - byz;
  if (opts_.check_liveness && spec_valid && correct_proposed &&
      !has_unrecoverable_loss(entries) &&
      !has_permanent_window(entries, ScheduleEntry::Kind::kPartition) &&
      !has_permanent_window(entries, ScheduleEntry::Kind::kAsynchrony) &&
      sys.has_quorum_in(correct)) {
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

  Fnv64 h;
  h.mix(static_cast<std::uint64_t>(spec.protocol));
  h.mix(static_cast<std::uint64_t>(spec.family));
  for (std::size_t i = 0; i < spec.learner_count; ++i) {
    const bool l = cluster.learner(i).learned();
    h.mix(l ? 1 : 0);
    h.mix(l ? static_cast<std::uint64_t>(cluster.learner(i).learned_value()) : 0);
    h.mix(l ? static_cast<std::uint64_t>(cluster.learner(i).learn_time()) : 0);
  }
  for (ProcessId a = 0; a < n; ++a) {
    const bool d = cluster.acceptor(a).decided();
    h.mix(d ? 1 : 0);
    h.mix(d ? static_cast<std::uint64_t>(cluster.acceptor(a).decision()) : 0);
  }
  h.mix(res.messages_delivered);
  h.mix(static_cast<std::uint64_t>(res.end_time));
  res.trace_digest = h.digest();
  harvest_observer(ob, res);
  return res;
}

}  // namespace rqs::scenario
