#include "scenario/deployment.hpp"

#include <algorithm>

#include "common/retry.hpp"
#include "sim/network.hpp"

namespace rqs::scenario {

namespace {

/// Salts separating the per-link loss and duplication draw streams derived
/// from one spec seed.
constexpr std::uint64_t kLossSeedSalt = 0x10551055cafef00dULL;
constexpr std::uint64_t kDupSeedSalt = 0xd0b1e0d0b1e5eedULL;

/// Retry policy for a spec: armed exactly when the schedule has loss or
/// duplication, with backoff from the harness default (4 Delta) and
/// failover / give-up after four retransmissions of the same round.
/// Loss-free specs keep it disabled so their trace digests stay
/// byte-identical to the send-once automata.
RetryPolicy::Config retry_for(const ScenarioSpec& spec) {
  RetryPolicy::Config retry;
  retry.enabled = std::any_of(
      spec.schedule.begin(), spec.schedule.end(), [](const ScheduleEntry& e) {
        return e.kind == ScheduleEntry::Kind::kLoss ||
               e.kind == ScheduleEntry::Kind::kDuplicate;
      });
  if (retry.enabled) {
    retry.max_attempts = 4;
    retry.seed = spec.seed;
  }
  return retry;
}

}  // namespace

ProcessSet coalition(const ScenarioSpec& spec) {
  return spec.role == FaultRole::kNone ? ProcessSet{} : spec.byzantine;
}

storage::StorageClusterConfig storage_config(const ScenarioSpec& spec) {
  storage::StorageClusterConfig cfg{.reader_count = spec.reader_count,
                                    .byzantine = coalition(spec),
                                    .key_count = spec.key_count,
                                    .retry = retry_for(spec)};
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
  return cfg;
}

consensus::ClusterConfig consensus_config(const ScenarioSpec& spec) {
  consensus::ClusterConfig cfg{.proposer_count = spec.proposer_count,
                               .learner_count = spec.learner_count,
                               .fake_value = spec.fake_value,
                               .byzantine_proposer = spec.byzantine_proposer,
                               .retry = retry_for(spec)};
  const ProcessSet byz = coalition(spec);
  switch (spec.role) {
    case FaultRole::kAmnesiac: cfg.amnesiac_acceptors = byz; break;
    case FaultRole::kPrepLiar: cfg.prep_liar_acceptors = byz; break;
    default: cfg.byzantine_acceptors = byz; break;
  }
  return cfg;
}

void VisibilityRules::apply(ProcessId client, ProcessSet reachable) {
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

bool start_storage_op(storage::StorageCluster& cluster,
                      VisibilityRules& visibility, const ScheduleEntry& e) {
  const std::size_t readers = cluster.reader_count();
  if (e.key >= cluster.key_count()) return false;
  if (e.kind == ScheduleEntry::Kind::kWrite) {
    if (!cluster.write_done(e.key)) return false;
    visibility.apply(storage::writer_client_id(e.key, readers), e.reachable);
    cluster.async_write(e.key, e.value);
    return true;
  }
  if (e.kind != ScheduleEntry::Kind::kRead || e.client >= readers ||
      !cluster.read_done(e.key, e.client)) {
    return false;
  }
  visibility.apply(storage::reader_client_id(e.key, e.client, readers),
                   e.reachable);
  cluster.async_read(e.key, e.client);
  return true;
}

}  // namespace rqs::scenario
