// Replay of fired choices, and the queue positions choices carry.
//
// Each choice enabled() lists records the queue position of the event it
// names, and fire() dispatches that position. On backtrack the explorer
// builds a fresh execution and fires the path's choices again: a replay of
// the same prefix from the initial state meets the same queue at every
// step. These helpers fire a schedule on one execution and record the
// state each step reached, then fire the same choices on a fresh execution
// and compare the digest, the enabled set (positions included, which
// Choice's == ignores) and the violations at every step. A reference scan
// of the whole queue checks the positions themselves at every recorded
// step.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "mc/execution.hpp"

namespace rqs::mc {

/// Reference for Choice::position: scans the whole queue for the event
/// named (c.kind, c.id) with the smallest Event::key, hashing each queued
/// event as McExecution names it. Returns queued_count() if none matches.
inline std::size_t reference_position(sim::Simulation& sim, const Choice& c) {
  const std::size_t queued = sim.queued_count();
  std::size_t best = queued;
  for (std::size_t i = 0; i < queued; ++i) {
    const sim::Event& ev = sim.queued_event(i);
    Fnv64 h;
    Choice::Kind kind = Choice::Kind::kDeliver;
    if (ev.kind() == sim::Event::kDelivery) {
      h.mix(ev.delivery.from);
      h.mix(ev.delivery.to);
      ev.delivery.msg->digest_into(h);
    } else if (ev.kind() == sim::Event::kTimer) {
      kind = Choice::Kind::kTimer;
      h.mix(ev.timer.owner);
      h.mix(ev.timer.arm_seq);
    } else {
      continue;
    }
    if (kind != c.kind || h.digest() != c.id) continue;
    if (best == queued || ev.key < sim.queued_event(best).key) best = i;
  }
  return best;
}

/// Expects every queued choice of `enabled` (the current enabled set of
/// `exec`) to carry its reference position. Returns how many queued events
/// no choice names: payload-identical twins of a smaller-key event.
inline std::size_t expect_reference_positions(
    McExecution& exec, const std::vector<Choice>& enabled) {
  sim::Simulation& sim = exec.cluster().sim();
  std::size_t named = 0;
  for (const Choice& c : enabled) {
    if (c.kind == Choice::Kind::kInject) continue;
    EXPECT_EQ(c.position, reference_position(sim, c)) << to_string(c);
    ++named;
  }
  return sim.queued_count() - named;
}

/// One step fired and the state after it.
struct FiredStep {
  Choice choice;
  std::uint64_t digest{0};
  std::vector<Choice> enabled;
  std::vector<std::string> violations;
};

/// Fires `c` through fire(), records the step and checks the positions of
/// the choices enabled after it against the reference scan.
inline FiredStep fire_and_observe(McExecution& exec, const Choice& c) {
  FiredStep step;
  step.choice = c;
  exec.fire(c);
  step.digest = exec.digest();
  exec.enabled(step.enabled);
  exec.violations(step.violations);
  expect_reference_positions(exec, step.enabled);
  return step;
}

/// The positions of `choices`, in order.
inline std::vector<std::uint32_t> positions(
    const std::vector<Choice>& choices) {
  std::vector<std::uint32_t> out;
  for (const Choice& c : choices) out.push_back(c.position);
  return out;
}

/// Fires the choices of `steps` on a fresh execution of `spec` and expects
/// every state to equal the one the recorded run reached.
inline void expect_replay_matches(const scenario::ScenarioSpec& spec,
                                  const std::vector<FiredStep>& steps) {
  McExecution exec(spec);
  std::vector<Choice> enabled;
  std::vector<std::string> violations;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    exec.fire(steps[i].choice);
    exec.enabled(enabled);
    exec.violations(violations);
    EXPECT_EQ(exec.digest(), steps[i].digest) << "step " << i;
    EXPECT_EQ(enabled, steps[i].enabled) << "step " << i;
    EXPECT_EQ(positions(enabled), positions(steps[i].enabled)) << "step " << i;
    EXPECT_EQ(violations, steps[i].violations) << "step " << i;
  }
}

/// Random walks of `spec`, each fired through fire_and_observe() until no
/// choice is enabled and replayed on a fresh execution.
inline void expect_random_walks_replay(const scenario::ScenarioSpec& spec,
                                       std::uint64_t seed, int walks) {
  std::mt19937_64 rng(seed);
  for (int walk = 0; walk < walks; ++walk) {
    McExecution exec(spec);
    std::vector<FiredStep> steps;
    std::vector<Choice> enabled;
    exec.enabled(enabled);
    while (!enabled.empty()) {
      steps.push_back(fire_and_observe(exec, enabled[rng() % enabled.size()]));
      enabled = steps.back().enabled;
    }
    ASSERT_GT(steps.size(), 3u);
    expect_replay_matches(spec, steps);
  }
}

}  // namespace rqs::mc
