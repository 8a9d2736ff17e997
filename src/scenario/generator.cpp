#include "scenario/generator.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "consensus/config.hpp"
#include "storage/harness.hpp"

namespace rqs::scenario {

namespace {

constexpr sim::SimTime kDelta = sim::kDefaultDelta;
constexpr sim::SimTime kHorizonDeltas = 40;  ///< op/fault times land in [0, horizon]
constexpr double kMaximalBias = 0.75;  ///< P[coalition = full maximal element of B]

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& from) {
  return from[static_cast<std::size_t>(
      rng.uniform(0, static_cast<std::int64_t>(from.size()) - 1))];
}

std::size_t pick_size(Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(rng.uniform(static_cast<std::int64_t>(lo),
                                              static_cast<std::int64_t>(hi)));
}

/// A uniformly random subset of `universe` with exactly `k` members.
ProcessSet random_subset(Rng& rng, std::size_t n, std::size_t k) {
  ProcessSet out;
  while (out.size() < k) {
    out.insert(static_cast<ProcessId>(rng.uniform(0, static_cast<std::int64_t>(n) - 1)));
  }
  return out;
}

const std::vector<SystemFamily>& default_families(Protocol p) {
  static const std::vector<SystemFamily> kStorageFamilies{
      SystemFamily::kFast5, SystemFamily::kThreeT1of1, SystemFamily::kExample7,
      SystemFamily::kGraded7};
  static const std::vector<SystemFamily> kConsensusFamilies{
      SystemFamily::kThreeT1of1, SystemFamily::kThreeT1of2,
      SystemFamily::kExample7, SystemFamily::kMasking4};
  return p == Protocol::kStorage ? kStorageFamilies : kConsensusFamilies;
}

}  // namespace

ScenarioGenerator::Options ScenarioGenerator::fig1_hunt() {
  Options o;
  o.families = {SystemFamily::kFig1Broken5};
  o.protocols = {Protocol::kStorage};
  o.byzantine_probability = 0.0;  // the fig1 adversary is crash-only
  o.restricted_op_probability = 0.9;
  o.small_visibility_probability = 0.45;
  o.min_ops = 3;
  o.max_ops = 6;
  o.max_crashes = 2;
  o.max_partitions = 1;
  o.asynchrony_probability = 0.1;
  o.loss_probability = 0.0;
  o.duplication_probability = 0.0;
  return o;
}

ScenarioSpec ScenarioGenerator::generate(std::uint64_t seed) const {
  // Decorrelate sequential seeds before feeding the engine.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  ScenarioSpec spec;
  spec.seed = seed;

  static const std::vector<Protocol> kBoth{Protocol::kStorage,
                                           Protocol::kConsensus};
  spec.protocol = opts_.protocols.empty() ? pick(rng, kBoth)
                                          : pick(rng, opts_.protocols);
  spec.family = opts_.families.empty()
                    ? pick(rng, default_families(spec.protocol))
                    : pick(rng, opts_.families);

  const RefinedQuorumSystem sys = materialize(spec.family);
  const std::size_t n = sys.universe_size();
  const sim::SimTime horizon = kHorizonDeltas * kDelta;
  auto time_in = [&rng](sim::SimTime lo, sim::SimTime hi) {
    return static_cast<sim::SimTime>(rng.uniform(lo, hi));
  };

  // Byzantine role assignment, drawn from the adversary's B-sets and
  // biased toward a full maximal element (the coalition safety must mask).
  if (rng.chance(opts_.byzantine_probability)) {
    ProcessSet coalition = sys.adversary().sample_maximal(rng);
    if (!rng.chance(kMaximalBias)) {
      for (const ProcessId id : coalition) {
        if (rng.chance(0.5)) coalition.erase(id);
      }
    }
    if (!coalition.empty()) {
      spec.byzantine = coalition;
      if (spec.protocol == Protocol::kStorage) {
        static const std::vector<FaultRole> kRoles{
            FaultRole::kAmnesiac, FaultRole::kFabricator,
            FaultRole::kEquivocator};
        spec.role = pick(rng, kRoles);
      } else {
        static const std::vector<FaultRole> kRoles{
            FaultRole::kAmnesiac, FaultRole::kFabricator,
            FaultRole::kEquivocator, FaultRole::kPrepLiar};
        spec.role = pick(rng, kRoles);
      }
    }
  }

  // Client workload.
  if (spec.protocol == Protocol::kStorage) {
    if (opts_.max_keys > 1) {
      // Clamp to the client-id layout capacity: ids 40 + key*(1+readers)
      // must stay below ProcessSet::kMaxProcesses = 64 (the scenario layer
      // drives protocol-width harnesses; wider universes are analysis-only).
      const std::size_t fit =
          (ProcessSet::kMaxProcesses - storage::kWriterId) /
          (1 + spec.reader_count);
      spec.key_count = pick_size(rng, 1, std::min(opts_.max_keys, fit));
    }
    const std::size_t ops = pick_size(rng, opts_.min_ops, opts_.max_ops);
    Value next_value = 1;
    for (std::size_t i = 0; i < ops; ++i) {
      ScheduleEntry e;
      e.at = time_in(0, horizon);
      e.key = static_cast<ObjectId>(pick_size(rng, 0, spec.key_count - 1));
      if (rng.chance(0.4)) {
        e.kind = ScheduleEntry::Kind::kWrite;
        e.value = next_value++;  // values stay unique across keys
      } else {
        e.kind = ScheduleEntry::Kind::kRead;
        e.client = pick_size(rng, 0, spec.reader_count - 1);
      }
      if (rng.chance(opts_.restricted_op_probability)) {
        if (rng.chance(opts_.small_visibility_probability)) {
          e.reachable = random_subset(rng, n, pick_size(rng, 1, n - 1));
        } else {
          // A random quorum, occasionally padded with extra servers: the
          // common "reads from quorum Q" execution of the paper's figures.
          e.reachable = sys.quorum_set(static_cast<QuorumId>(
              pick_size(rng, 0, sys.quorum_count() - 1)));
          for (ProcessId id = 0; id < n; ++id) {
            if (rng.chance(0.25)) e.reachable.insert(id);
          }
        }
      }
      spec.schedule.push_back(e);
    }
  } else {
    // Proposals land early so bounded disruptions leave room to recover;
    // contention appears whenever both proposers draw a proposal.
    bool any = false;
    for (std::size_t p = 0; p < spec.proposer_count; ++p) {
      if (!rng.chance(p == 0 ? 0.8 : 0.6)) continue;
      any = true;
      ScheduleEntry e;
      e.kind = ScheduleEntry::Kind::kPropose;
      e.client = p;
      e.value = 100 * static_cast<Value>(p + 1);
      e.at = time_in(0, horizon / 4);
      spec.schedule.push_back(e);
    }
    if (!any) {
      ScheduleEntry e;
      e.kind = ScheduleEntry::Kind::kPropose;
      e.value = 100;
      spec.schedule.push_back(e);
    }
    spec.byzantine_proposer = spec.proposer_count >= 2 && rng.chance(0.2);
  }

  // Crashes.
  for (std::size_t i = pick_size(rng, 0, opts_.max_crashes); i > 0; --i) {
    ScheduleEntry e;
    e.kind = ScheduleEntry::Kind::kCrash;
    e.target = static_cast<ProcessId>(pick_size(rng, 0, n - 1));
    e.at = time_in(0, horizon);
    spec.schedule.push_back(e);
  }

  // Partitions: a client cut off from a server subset, or a server-side
  // split; mostly bounded windows, occasionally permanent.
  for (std::size_t i = pick_size(rng, 0, opts_.max_partitions); i > 0; --i) {
    ScheduleEntry e;
    e.kind = ScheduleEntry::Kind::kPartition;
    if (rng.chance(0.6)) {
      ProcessId client;
      if (spec.protocol == Protocol::kStorage) {
        const auto key = static_cast<ObjectId>(pick_size(rng, 0, spec.key_count - 1));
        const std::size_t c = pick_size(rng, 0, spec.reader_count);
        client = c == 0
                     ? storage::writer_client_id(key, spec.reader_count)
                     : storage::reader_client_id(key, c - 1, spec.reader_count);
      } else {
        client = consensus::kFirstLearnerId +
                 static_cast<ProcessId>(pick_size(rng, 0, spec.learner_count - 1));
      }
      e.side_a = ProcessSet::single(client);
      e.side_b = random_subset(rng, n, pick_size(rng, 1, n / 2 + 1));
    } else {
      e.side_a = random_subset(rng, n, pick_size(rng, 1, n / 2));
      e.side_b = random_subset(rng, n, pick_size(rng, 1, n / 2));
      e.side_b -= e.side_a;
      if (e.side_b.empty()) e.side_b = ProcessSet::universe(n) - e.side_a;
    }
    e.at = time_in(0, horizon);
    e.until = rng.chance(0.2) ? ScheduleEntry::kForever
                              : e.at + time_in(2 * kDelta, 15 * kDelta);
    spec.schedule.push_back(e);
  }

  // Asynchrony window: all links slow, then recover.
  if (rng.chance(opts_.asynchrony_probability)) {
    ScheduleEntry e;
    e.kind = ScheduleEntry::Kind::kAsynchrony;
    e.at = time_in(0, horizon);
    e.delay = time_in(kDelta + 1, 4 * kDelta);
    e.until = e.at + time_in(5 * kDelta, 15 * kDelta);
    spec.schedule.push_back(e);
  }

  // Lossy window (the consensus model allows lossy channels). Windows are
  // finite and p <= 0.5, so the retransmission layer the runner arms for
  // fault-scheduled specs must recover — liveness stays asserted.
  if (rng.chance(opts_.loss_probability)) {
    ScheduleEntry e;
    e.kind = ScheduleEntry::Kind::kLoss;
    e.at = time_in(0, horizon);
    e.probability = 0.05 + 0.45 * rng.uniform01();
    e.until = e.at + time_in(5 * kDelta, 15 * kDelta);
    spec.schedule.push_back(e);
  }

  // Duplication window: deliver-twice with a late copy, stressing receiver
  // idempotence and reordering tolerance.
  if (rng.chance(opts_.duplication_probability)) {
    ScheduleEntry e;
    e.kind = ScheduleEntry::Kind::kDuplicate;
    e.at = time_in(0, horizon);
    e.probability = 0.1 + 0.9 * rng.uniform01();
    e.until = e.at + time_in(5 * kDelta, 15 * kDelta);
    spec.schedule.push_back(e);
  }

  return spec;
}

}  // namespace rqs::scenario
