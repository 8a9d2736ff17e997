// ScenarioRunner: materializes a ScenarioSpec into a Simulation, executes
// it and checks the paper's invariants against what actually happened.
//
// Safety is checked unconditionally: storage histories must be atomic
// (AtomicityChecker), consensus learners and acceptors must agree, and —
// when the Byzantine assignment is inside the adversary — a learned value
// must have been proposed (Validity). Liveness is asserted only when the
// paper promises it: the spec is valid (RQS satisfies Definition 2 and the
// Byzantine coalition is an element of B) and a fully-correct quorum stays
// reachable from the operation's client, mirroring the availability
// predicate of the Theorem 2/5 termination arguments.
//
// The deployment, the fault entries and the start of a storage operation
// come from scenario/deployment.hpp, which the model checker shares. A run
// is driven 400 (storage) or 2000 (consensus) Deltas past its last
// scheduled time, so delayed messages, view changes and retries settle
// before the verdicts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "scenario/spec.hpp"

namespace rqs::obs {
class Observer;
}  // namespace rqs::obs

namespace rqs::scenario {

/// Verdict of one scenario execution.
struct ScenarioResult {
  std::vector<std::string> violations;  ///< invariant violations (empty = pass)

  std::size_t ops_started{0};    ///< workload entries that began an operation
  std::size_t ops_completed{0};  ///< of those, how many responded
  std::size_t ops_skipped{0};    ///< entries skipped (client still busy)
  std::size_t liveness_checked{0};  ///< operations the liveness predicate covered

  std::uint64_t trace_digest{0};  ///< order-sensitive hash of the execution
  sim::SimTime end_time{0};
  std::uint64_t messages_delivered{0};

  /// Per-run metrics (empty unless an observer was attached).
  obs::MetricsSnapshot metrics;
  /// Digest of the trace-event sequence (0 unless tracing was on).
  std::uint64_t events_digest{0};

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  [[nodiscard]] std::string to_string() const;
};

class ScenarioRunner {
 public:
  struct Options {
    /// Storage servers bound their histories (the production default).
    /// false retains the paper's full-history storage; the differential
    /// suite runs every spec both ways and requires identical digests.
    bool compact_history{true};

    /// Attach a per-run observer and surface its MetricsSnapshot through
    /// ScenarioResult::metrics. Observation is passive: trace_digest is
    /// byte-identical with or without it.
    bool collect_metrics{false};
    /// Trace ring capacity for the per-run observer (0 = no tracing);
    /// implies metrics collection when nonzero.
    std::size_t trace_capacity{0};
    /// External observer to attach instead of a per-run one (for benches
    /// accumulating histograms across many runs). When set, the two
    /// fields above are ignored and the caller owns aggregation.
    obs::Observer* observer{nullptr};
  };

  ScenarioRunner() = default;
  explicit ScenarioRunner(const Options& opts) : opts_(opts) {}

  /// Executes the spec deterministically: equal specs produce equal
  /// results (including trace_digest), bit for bit.
  [[nodiscard]] ScenarioResult run(const ScenarioSpec& spec) const;

 private:
  Options opts_;
};

}  // namespace rqs::scenario
