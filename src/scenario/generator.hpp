// ScenarioGenerator: seeded sampling of valid ScenarioSpecs.
//
// generate(seed) is a pure function of the seed — the swarm re-derives any
// failing scenario from its seed alone, and shrink() minimizes from there.
// Sampling is biased toward adversary-maximal fault assignments (the
// coalition is a *maximal* element of B most of the time) because the
// paper's safety arguments are tight exactly at the adversary's boundary.
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/spec.hpp"

namespace rqs::scenario {

class ScenarioGenerator {
 public:
  struct Options {
    /// Families to draw from (empty = the default valid mix; consensus
    /// scenarios skip storage-only families automatically).
    std::vector<SystemFamily> families;
    /// Protocols to draw from (empty = both).
    std::vector<Protocol> protocols;

    /// Maximum keys of the register space a storage scenario may use; the
    /// key count is drawn in [1, max_keys] and every kWrite/kRead entry is
    /// assigned a key. 1 keeps the paper's single shared variable.
    std::size_t max_keys{1};

    double byzantine_probability{0.6};  ///< P[assign a Byzantine coalition]
    double restricted_op_probability{0.45};  ///< P[op gets a visibility set]
    double small_visibility_probability{0.2};  ///< P[that set is sub-quorum]
    std::size_t min_ops{2};
    std::size_t max_ops{6};
    std::size_t max_crashes{2};
    std::size_t max_partitions{2};
    double asynchrony_probability{0.35};
    /// P[schedule a finite lossy window]. Both protocols: the runner arms
    /// the retransmission layer for fault-scheduled specs, so loss stresses
    /// liveness recovery as well as safety.
    double loss_probability{0.25};
    /// P[schedule a finite duplication window] — every message may be
    /// delivered twice, the copy late (doubles as reordering stress).
    double duplication_probability{0.25};
  };

  ScenarioGenerator() = default;
  explicit ScenarioGenerator(Options opts) : opts_(std::move(opts)) {}

  /// Samples the scenario for `seed`; deterministic, thread-safe (const).
  [[nodiscard]] ScenarioSpec generate(std::uint64_t seed) const;

  /// The option set aimed at the Section 1.2 planted bug: storage on the
  /// greedy fig1-broken5 system, visibility-restricted ops and crashes —
  /// the mix from which a swarm re-derives the Figure 1 atomicity
  /// violation.
  [[nodiscard]] static Options fig1_hunt();

 private:
  Options opts_;
};

}  // namespace rqs::scenario
