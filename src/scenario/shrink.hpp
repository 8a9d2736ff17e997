// Greedy schedule shrinking: given a violating scenario, drop and simplify
// schedule entries while the violation persists, producing the minimal
// reproducer the swarm reports alongside the seed.
#pragma once

#include <cstddef>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace rqs::scenario {

struct ShrinkResult {
  ScenarioSpec spec;             ///< minimized spec (== input if it never violated)
  bool violating{false};         ///< the minimized spec still violates
  std::size_t entries_before{0};
  std::size_t entries_after{0};
  std::size_t runs{0};           ///< scenario executions spent shrinking
};

/// Minimizes `spec` under `runner`: repeatedly (1) drops single schedule
/// entries and (2) lifts visibility restrictions, keeping every change that
/// preserves *some* invariant violation, until a fixpoint or 512
/// executions. Deterministic: same spec + runner options => same result.
[[nodiscard]] ShrinkResult shrink(const ScenarioSpec& spec,
                                  const ScenarioRunner& runner);

}  // namespace rqs::scenario
