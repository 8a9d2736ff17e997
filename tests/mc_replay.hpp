// Replay by recorded queue position, checked against replay by choice.
//
// On backtrack the explorer builds a fresh execution and re-dispatches each
// path step at the queue position fire() found it at: a replay of the same
// prefix from the initial state meets the same queue at every step. These
// helpers fire a schedule by choice, record each step's position and the
// state it reached, then replay the steps by position on a fresh execution
// and compare the digest, the enabled set and the violations at every step.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mc/execution.hpp"

namespace rqs::mc {

/// One step fired by choice: where fire() found it and the state after it.
struct FiredStep {
  Choice choice;
  std::size_t position{0};
  std::uint64_t digest{0};
  std::vector<Choice> enabled;
  std::vector<std::string> violations;
};

/// Fires `c` through fire() and records the step.
inline FiredStep fire_and_observe(McExecution& exec, const Choice& c) {
  FiredStep step;
  step.choice = c;
  EXPECT_TRUE(exec.fire(c)) << to_string(c);
  step.position = exec.fired_position();
  step.digest = exec.digest();
  exec.enabled(step.enabled);
  exec.violations(step.violations);
  return step;
}

/// Replays `steps` on a fresh execution of `spec` by recorded position and
/// expects every state to equal the one the choice-driven run reached.
inline void expect_position_replay_matches(
    const scenario::ScenarioSpec& spec, const std::vector<FiredStep>& steps) {
  McExecution exec(spec);
  std::vector<Choice> enabled;
  std::vector<std::string> violations;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    exec.fire_at(steps[i].choice, steps[i].position);
    exec.enabled(enabled);
    exec.violations(violations);
    EXPECT_EQ(exec.digest(), steps[i].digest) << "step " << i;
    EXPECT_EQ(enabled, steps[i].enabled) << "step " << i;
    EXPECT_EQ(violations, steps[i].violations) << "step " << i;
  }
}

}  // namespace rqs::mc
