// Exhaustive schedule-space exploration of a ScenarioSpec.
//
// Model checking in the Verisoft/Godefroid style: a depth-first search
// over canonical Choice sequences (mc/execution.hpp) on one McExecution.
// Before a state's first transition fires, when it has more to take, the
// search saves the execution's state in place (McExecution::save; at most
// one saved state per depth, its buffers reused); on backtrack it restores
// that state instead of rebuilding the deployment and firing the path
// again from the initial state. Debug builds assert that each restored
// state has the digest it was saved with. Two reductions, both optional
// so the naive-vs-reduced differential can be asserted in tests:
//
//  * Sleep sets. After exploring transition t at state s, t is put to
//    sleep for s's later subtrees; a child inherits the sleeping
//    transitions that are independent of the edge taken (the persistent
//    independence relation is mc::independent() in mc/execution.hpp, over
//    the targets McExecution::event_choice() names).
//    Interleavings that merely permute independent transitions are pruned
//    without being run.
//
//  * Visited-state pruning, keyed on the canonical FNV state digest
//    (common/fnv.hpp) over process + network state. Combined with sleep
//    sets this uses Godefroid's re-exploration rule: on revisiting a
//    digest whose stored sleep set was T with incoming sleep set S, the
//    revisit is pruned iff T is a subset of S; otherwise exactly T \ S is
//    explored (with everything else asleep) and the stored set shrinks to
//    T intersect S. The stored set only shrinks, so the search terminates,
//    and no transition sequence is missed — which is what lets a clean
//    run serve as a *certificate*.
//
// A run is a certificate of the property "no reachable state within the
// depth bound violates atomicity" only when McResult::complete is true:
// no truncation at max_depth, no state-budget abort, no early stop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mc/execution.hpp"
#include "scenario/spec.hpp"

namespace rqs::mc {

struct McOptions {
  /// Transition-depth bound: states at this depth are not expanded (their
  /// unexplored successors set McStats::truncated and clear `complete`).
  std::size_t max_depth{96};
  /// Abort after visiting this many state arrivals (safety net; clears
  /// `complete` when hit).
  std::uint64_t max_states{4'000'000};
  bool use_sleep_sets{true};
  bool use_state_cache{true};
  /// Stop at the first violating state instead of mapping the full space.
  bool stop_on_first_violation{false};
  /// Record the sorted set of distinct state digests in McResult — the
  /// strong form of the naive-vs-reduced differential (equal state *sets*,
  /// not just counts). Costs memory proportional to arrivals; for small
  /// deployments only.
  bool collect_state_digests{false};
};

/// Work counts of one search. They depend only on the search tree, not on
/// how a backtrack re-establishes its prefix: `transitions` and `replays`
/// count what a stateless search, which fires the prefix again from the
/// initial state, would do.
struct McStats {
  std::uint64_t executions{0};        ///< maximal/pruned paths completed
  /// Choices fired, plus the length of each prefix a backtrack
  /// re-established by a restore. Choices actually fired are
  /// states_visited - 1: every arrival but the root follows one.
  std::uint64_t transitions{0};
  /// Backtracks that re-established a prefix, each by restoring a state.
  std::uint64_t replays{0};
  std::uint64_t states_visited{0};    ///< state arrivals (with duplicates)
  std::uint64_t distinct_states{0};   ///< distinct digests (cache on)
  std::uint64_t sleep_pruned{0};      ///< subtrees cut by sleep sets
  std::uint64_t cache_pruned{0};      ///< revisits cut by the digest cache
  std::uint64_t truncated{0};         ///< states hit by max_depth
  std::size_t max_depth_seen{0};
};

struct McViolation {
  /// Canonical violation signature (joined per-key checker verdicts);
  /// identical across every interleaving reaching an equivalent state.
  std::string signature;
  /// The canonical schedule that reached the violating state, replayable
  /// with McExecution::fire on a fresh execution of the spec.
  std::vector<Choice> schedule;
};

struct McResult {
  McStats stats;
  /// Distinct violation signatures, in discovery order, each with the
  /// first schedule that reached it.
  std::vector<McViolation> violations;
  /// Order-sensitive digest of the exploration itself (fired choice keys
  /// and arrival state digests, in visit order): byte-identical across
  /// runs of the same spec + options, the determinism anchor.
  std::uint64_t exploration_digest{0};
  /// True iff the search covered the whole bounded schedule space: no
  /// depth truncation, no state-budget abort, no early stop. A complete
  /// run with no violations is a zero-violation certificate.
  bool complete{false};
  /// Sorted distinct state digests (opts.collect_state_digests only).
  std::vector<std::uint64_t> state_digests;
  /// Non-empty iff the spec is outside the checker's fragment.
  std::string error;

  [[nodiscard]] bool ok() const noexcept {
    return error.empty() && violations.empty() && complete;
  }
};

/// Exhaustively explores every delivery/timer/injection ordering of the
/// spec (see McExecution for the fragment handled).
[[nodiscard]] McResult explore(const scenario::ScenarioSpec& spec,
                               const McOptions& opts = {});

/// One explored Byzantine coalition: faulty processes are chosen by the
/// adversary, so each downward-closed subset of spec.byzantine is a
/// distinct branch of the model.
struct RoleBranch {
  ProcessSet coalition;
  McResult result;
};

/// Runs explore() once per subset of the servers in spec.byzantine (the
/// spec's role and forge strategy applied to exactly the coalition),
/// smallest coalition first. An id outside the system is ignored: it
/// builds no Byzantine process. Crash timing needs no such branching:
/// kCrash entries already interleave freely with protocol transitions
/// inside one exploration.
[[nodiscard]] std::vector<RoleBranch> explore_roles(
    const scenario::ScenarioSpec& spec, const McOptions& opts = {});

/// Projects an MC spec onto the wall-clock ScenarioRunner: entries are
/// re-timed sequentially (20 * delta apart, in schedule order) so runner
/// replay and shrink() can certify a minimal reproducer for violations —
/// like Fig. 1's read inversion — whose essence is non-overlap of the
/// client operations rather than a particular exotic interleaving.
[[nodiscard]] scenario::ScenarioSpec to_runner_spec(
    const scenario::ScenarioSpec& spec);

}  // namespace rqs::mc
