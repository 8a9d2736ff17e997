// How a ScenarioSpec acts on a deployment: the role mapping from a spec to
// a cluster config, the fault entries, the per-client visibility rules and
// the start of a storage operation. ScenarioRunner (timed executions) and
// the model checker's McExecution (every asynchronous schedule) both build
// and inject through this module, so the two harnesses give a spec the
// same meaning.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

#include "consensus/harness.hpp"
#include "scenario/spec.hpp"
#include "storage/harness.hpp"

namespace rqs::scenario {

/// The processes playing spec.role: spec.byzantine, or none for kNone.
[[nodiscard]] ProcessSet coalition(const ScenarioSpec& spec);

/// Storage deployment of a spec: its reader and key counts, the coalition
/// built as ByzantineStorageServer with the role's forge strategy, and
/// retransmission armed iff the schedule has loss or duplication.
[[nodiscard]] storage::StorageClusterConfig storage_config(
    const ScenarioSpec& spec);

/// Consensus deployment of a spec: its proposer and learner counts, the
/// coalition as amnesiac, prep-liar or lying acceptors per the role, and
/// retransmission armed iff the schedule has loss or duplication.
[[nodiscard]] consensus::ClusterConfig consensus_config(
    const ScenarioSpec& spec);

/// Replaceable per-client visibility blocks: each kWrite/kRead entry with a
/// restricted `reachable` set supersedes the client's previous restriction.
class VisibilityRules {
 public:
  VisibilityRules(sim::Network& net, ProcessSet servers)
      : net_(net), servers_(servers) {}

  void apply(ProcessId client, ProcessSet reachable);

  /// The installed rule ids per client. Saved and restored with the
  /// network's state, which holds the rules they name.
  using State = std::map<ProcessId, std::pair<std::size_t, std::size_t>>;
  void save(State& s) const { s = installed_; }
  void restore(const State& s) { installed_ = s; }

 private:
  sim::Network& net_;
  ProcessSet servers_;
  State installed_;
};

/// Installs the fault entries shared by both protocols. A kCrash whose
/// target is not a server (id >= universe) is ignored. Returns false if the
/// entry kind is a client operation the caller must handle.
bool apply_fault_entry(sim::Simulation& sim, const ScheduleEntry& e,
                       std::size_t universe, std::uint64_t seed);

/// Starts the storage operation of a kWrite/kRead entry: installs the
/// entry's visibility for its client, then invokes async_write/async_read.
/// Returns false, changing nothing, when the entry is not a storage
/// operation, its key or reader is out of range, or its client is busy.
bool start_storage_op(storage::StorageCluster& cluster,
                      VisibilityRules& visibility, const ScheduleEntry& e);

}  // namespace rqs::scenario
