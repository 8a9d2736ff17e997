// Swarm: execute thousands of seeded scenarios across worker threads.
//
// Each worker owns its generator, runner and Simulations outright — there
// is no shared mutable state during the run, only a shared atomic seed
// cursor and a per-worker tally merged after join. Failures are re-derived
// from their seeds after the parallel phase and shrunk single-threadedly,
// so the report (including the aggregate digest) is independent of thread
// count and interleaving.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "scenario/shrink.hpp"

namespace rqs::scenario {

struct SwarmOptions {
  std::size_t scenarios{1000};
  std::size_t threads{4};
  std::uint64_t base_seed{1};  ///< scenario i uses seed base_seed + i
  ScenarioGenerator::Options generator;
  ScenarioRunner::Options runner;
  bool shrink_failures{true};
};

/// One failing scenario with its minimized reproducer.
struct SwarmFailure {
  std::uint64_t seed{0};
  ScenarioSpec spec;                    ///< as generated
  std::vector<std::string> violations;  ///< from the original run
  ScenarioSpec shrunk;                  ///< minimized reproducer
  std::size_t shrunk_entries{0};

  [[nodiscard]] std::string to_string() const;
};

struct SwarmReport {
  std::size_t scenarios_run{0};
  std::size_t violating{0};         ///< scenarios with >= 1 invariant violation
  std::size_t ops_started{0};
  std::size_t ops_completed{0};
  std::size_t liveness_checked{0};  ///< operations covered by a liveness claim
  std::uint64_t digest{0};          ///< XOR of per-scenario trace digests
  /// Merged metrics across all scenarios (empty unless the runner options
  /// enabled collection). Histogram merging is bucket-wise addition —
  /// commutative and associative — so this aggregate is thread-count
  /// invariant, like the digest.
  obs::MetricsSnapshot metrics;
  /// XOR of per-scenario trace-event digests (0 unless tracing was on);
  /// thread-count invariant for the same reason.
  std::uint64_t events_digest{0};
  std::vector<SwarmFailure> failures;  ///< lowest seeds first, at most 8

  [[nodiscard]] bool ok() const noexcept { return violating == 0; }
  [[nodiscard]] std::string summary() const;
};

/// Runs the swarm. Deterministic for fixed options (thread count only
/// changes wall-clock, never the report).
[[nodiscard]] SwarmReport run_swarm(const SwarmOptions& opts);

}  // namespace rqs::scenario
