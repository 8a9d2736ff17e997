// Declarative scenario descriptions.
//
// The paper's guarantees are quantified over *all* executions: every
// adversary structure, asynchrony pattern and Byzantine behavior. A
// ScenarioSpec is a value describing one such execution — a deployment
// (which refined quorum system, which processes play which Byzantine role,
// drawn from the adversary's B-sets) plus a timed fault schedule (crashes,
// partitions, asynchrony windows, message loss) and a client workload
// (writes, multi-reader bursts, contended proposals). Specs are sampled by
// ScenarioGenerator, executed by ScenarioRunner, minimized by shrink(), and
// farmed out in the thousands by the Swarm.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/process_set.hpp"
#include "common/types.hpp"
#include "core/rqs.hpp"
#include "sim/simulation.hpp"

namespace rqs::scenario {

/// Which of the two RQS protocols the scenario exercises.
enum class Protocol : std::uint8_t { kStorage, kConsensus };

[[nodiscard]] const char* to_string(Protocol p) noexcept;

/// Canonical deployments (constructions.hpp), small enough to simulate by
/// the thousand. kFig1Broken5 is the deliberately *invalid* greedy system
/// of Section 1.2 — the planted bug swarm runs must re-detect.
enum class SystemFamily : std::uint8_t {
  kFast5,        ///< Section 1.2 repaired system (5 servers, t = 2, crash)
  kThreeT1of1,   ///< 3t+1 instantiation, t = 1 (4 processes, Byzantine)
  kThreeT1of2,   ///< 3t+1 instantiation, t = 2 (7 processes, Byzantine)
  kExample7,     ///< Example 7 general-adversary system (6 processes)
  kGraded7,      ///< graded threshold n=7, k=1, t=2, r=1, q=0
  kMasking4,     ///< masking system n=4, k=1, t=1 (class 2 only)
  kFig1Broken5,  ///< greedy Fig. 1 system — violates Property 2 (planted bug)
  kTiny3,        ///< graded threshold n=3, k=0, t=1 (smallest valid crash
                 ///< system; the model checker's exhaustive-search anchor)
};

[[nodiscard]] const char* to_string(SystemFamily f) noexcept;

/// Builds the refined quorum system for a family.
[[nodiscard]] RefinedQuorumSystem materialize(SystemFamily f);

/// True iff the family's RQS satisfies Definition 2 (everything except
/// kFig1Broken5); the runner only *asserts* invariants the paper proves
/// for valid systems.
[[nodiscard]] bool family_valid(SystemFamily f) noexcept;

/// Byzantine behavior assigned to the processes in ScenarioSpec::byzantine.
enum class FaultRole : std::uint8_t {
  kNone,         ///< no Byzantine processes
  kAmnesiac,     ///< storage: report blank history; consensus: forget state
  kFabricator,   ///< storage: invent a high-timestamp pair; consensus: lie
  kEquivocator,  ///< storage: report different forgeries to different readers
  kPrepLiar,     ///< consensus: lie in the prepare phase only
};

[[nodiscard]] const char* to_string(FaultRole r) noexcept;

/// One timed event of a scenario: a client operation or a fault injection.
struct ScheduleEntry {
  enum class Kind : std::uint8_t {
    kWrite,       ///< storage: the writer writes `value`
    kRead,        ///< storage: reader `client` reads
    kPropose,     ///< consensus: proposer `client` proposes `value`
    kCrash,       ///< server `target` crashes (any other target is ignored)
    kPartition,   ///< bidirectional drop between side_a and side_b
    kAsynchrony,  ///< default link delay raised to `delay` in the window
                  ///< (partitions and visibility drops still win)
    kLoss,        ///< each message dropped with `probability` in the window
    kDuplicate,   ///< each message delivered twice with `probability` in the
                  ///< window; the copy arrives later (doubles as reordering)
  };

  /// `until` value meaning "never lifted".
  static constexpr sim::SimTime kForever = std::numeric_limits<sim::SimTime>::max();

  Kind kind{Kind::kWrite};
  sim::SimTime at{0};          ///< injection time (virtual)
  Value value{0};              ///< kWrite / kPropose
  std::size_t client{0};       ///< reader index (kRead) / proposer index (kPropose)
  ObjectId key{0};             ///< kWrite/kRead: the register operated on
  ProcessSet reachable;        ///< kWrite/kRead: servers visible to the client
                               ///< from this operation on (empty = all). The
                               ///< paper's "reads from quorum Q" in one entry.
  ProcessId target{kInvalidProcess};  ///< kCrash
  ProcessSet side_a, side_b;   ///< kPartition
  sim::SimTime until{0};       ///< kPartition/kAsynchrony/kLoss/kDuplicate window end
  sim::SimTime delay{0};       ///< kAsynchrony per-message delay
  double probability{0.0};     ///< kLoss drop / kDuplicate duplication probability

  [[nodiscard]] std::string to_string() const;
};

/// A complete scenario: deployment + fault schedule + workload.
struct ScenarioSpec {
  Protocol protocol{Protocol::kStorage};
  SystemFamily family{SystemFamily::kFast5};
  std::uint64_t seed{0};       ///< generator seed (provenance; reproducers print it)

  ProcessSet byzantine;        ///< servers/acceptors playing `role`
  FaultRole role{FaultRole::kNone};
  Value fake_value{-7};        ///< the value Byzantine roles push/forge
  bool byzantine_proposer{false};  ///< consensus: proposer 0 is Byzantine

  std::size_t reader_count{2};     ///< storage: readers per key
  std::size_t key_count{1};        ///< storage: independent registers
  std::size_t proposer_count{2};   ///< consensus
  std::size_t learner_count{2};    ///< consensus

  std::vector<ScheduleEntry> schedule;

  /// Largest bounded time in the schedule (entry times and window ends).
  [[nodiscard]] sim::SimTime schedule_end() const;

  /// Human-readable reproducer dump (family, roles, every entry).
  [[nodiscard]] std::string to_string() const;
};

}  // namespace rqs::scenario
