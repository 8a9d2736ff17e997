// One controllable execution of a storage ScenarioSpec for the model
// checker: the simulation is built with delta = 0 so every pending event
// sits at virtual time 0, and the *selection order* of those events — not
// the clock — is the nondeterminism the explorer enumerates. Firing order
// over deliveries and timers models full asynchrony (a timer choice taken
// before an ack delivery is exactly a late message), so the atomicity
// verdicts quantify over all asynchronous schedules of the spec, which is
// the quantifier in the paper's safety claims.
//
// Canonical naming. The explorer re-executes prefixes from scratch
// (stateless search), so every enabled transition carries a Choice key
// that is stable across replays *and* across Mazurkiewicz-equivalent
// interleavings: deliveries are named by (from, to, payload digest),
// timers by (owner, per-owner arm ordinal), injections by schedule index.
// Simulation-assigned identities (event sequence numbers, TimerId
// generation/slot encodings) depend on global allocation order and never
// enter a key or a state digest.
//
// Operation endpoints. With delta = 0 the simulation clock is useless for
// atomicity checking (every operation would overlap every other), so the
// checker times operations by the cluster's operation log, whose ordinals
// tick exactly at operation endpoints: once per invocation (an injected
// client operation) and once per response. At most one operation
// completes per fired event, so the ordinals order the endpoints as the
// firings do. Endpoints only move at client-side transitions, and all
// client-side transitions are declared mutually dependent — their relative
// order is invariant within an equivalence class — so the recorded
// intervals, and the per-key AtomicityChecker verdicts computed from them,
// are a function of the explored state rather than of the particular
// interleaving that reached it. (Ticking only at endpoints, instead of at
// every client-side transition, is what lets states that differ merely in
// how many acks a client has absorbed merge in the digest cache.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/deployment.hpp"

namespace rqs::mc {

/// Canonical name of one enabled transition of an McExecution.
struct Choice {
  enum class Kind : std::uint8_t { kInject = 0, kDeliver = 1, kTimer = 2 };

  /// Canonical content key (schedule index / delivery content hash /
  /// timer owner+ordinal hash). Together with `kind` it identifies the
  /// transition within a state; identical keys denote payload-identical
  /// events whose firings are interchangeable.
  std::uint64_t id{0};
  /// Where the named event sits in the queue of the state enabled() listed
  /// it in (unused for injections): among payload-identical events, the
  /// one with the smallest Event::key. Not part of the choice's identity,
  /// so ==, < and key() ignore it.
  std::uint32_t position{0};
  /// The process whose state the transition mutates (kInvalidProcess for
  /// fault injections with no single target).
  ProcessId target{kInvalidProcess};
  Kind kind{Kind::kInject};
  /// Moves an operation endpoint (see file comment). All client-side
  /// transitions are mutually dependent.
  bool client_side{true};
  /// Conflicts with everything (crash / partition injections: they change
  /// which *other* transitions are live).
  bool global{false};

  [[nodiscard]] std::uint64_t key() const noexcept {
    return (std::uint64_t{static_cast<std::uint8_t>(kind)} << 62) ^ id;
  }
  friend bool operator==(const Choice& a, const Choice& b) noexcept {
    return a.kind == b.kind && a.id == b.id;
  }
  friend bool operator<(const Choice& a, const Choice& b) noexcept {
    return a.kind != b.kind ? static_cast<std::uint8_t>(a.kind) <
                                  static_cast<std::uint8_t>(b.kind)
                            : a.id < b.id;
  }
};

// The digest cache keeps a sleep set of choices for each distinct state
// (84,082 in one mc-fig1 pass). A 32-byte Choice (a 64-bit position, with
// `kind` ahead of `id`) raised mc-fig1's peak RSS from 11.8 to 12.9 MiB,
// +9% against a 10% bound.
static_assert(sizeof(Choice) == 24,
              "Choice must stay 24 bytes: sleep sets hold one per state");

/// The independence relation of the partial-order reduction: two
/// co-enabled transitions commute iff neither is global, they target
/// different processes, and they are not both client-side (client-side
/// order defines the operation endpoints, so it is never reduced away).
/// Dispatching an event mutates only the state of the target that
/// McExecution::event_choice() names (delivery receiver, timer owner),
/// plus simulator bookkeeping that is kept out of state digests or is
/// canonical per trace, so events with different targets commute.
[[nodiscard]] inline bool independent(const Choice& a,
                                      const Choice& b) noexcept {
  if (a.global || b.global) return false;
  if (a.client_side && b.client_side) return false;
  return a.target != b.target;
}

[[nodiscard]] std::string to_string(const Choice& c);

class McExecution {
 public:
  /// Builds the deployment the spec describes through
  /// scenario::storage_config, as ScenarioRunner does, with delta = 0.
  /// Check unsupported() before exploring: the model checker handles
  /// storage specs whose entries are writes, reads, crashes and
  /// forever-partitions with unique write values per key.
  explicit McExecution(const scenario::ScenarioSpec& spec);

  McExecution(const McExecution&) = delete;
  McExecution& operator=(const McExecution&) = delete;

  /// Empty if the spec is explorable; otherwise the reason it is not.
  [[nodiscard]] const std::string& unsupported() const noexcept {
    return unsupported_;
  }

  /// All enabled transitions of the current state, sorted by (kind, id)
  /// and deduplicated (payload-identical events collapse to one choice,
  /// the one with the smallest Event::key). Each choice records the queue
  /// position of the event it names.
  void enabled(std::vector<Choice>& out);

  /// Fires the transition named `c`: injects the next schedule entry or
  /// dispatches the queued event at c.position, then drains dead events.
  /// `c` must come from enabled() at this state, or at the same step of an
  /// earlier execution of the same spec that fired the same choices: that
  /// replay meets the same queue. Debug builds assert that the event at
  /// c.position is named `c`.
  void fire(const Choice& c);

  /// Canonical digest of the full state: process automata, live pending
  /// events (as a content multiset), crash set, injection cursor and the
  /// cluster's operation log with its endpoint count. Equal across every
  /// interleaving of the same trace; see digest_state() contracts in
  /// sim/process.hpp.
  [[nodiscard]] std::uint64_t digest();

  /// Canonical atomicity verdicts of the operation log so far (one string
  /// per violation, keyed per register; reads in invocation order).
  /// Completed operations never un-complete, so violations are monotone
  /// along an execution.
  void violations(std::vector<std::string>& out) const;

  /// The deployment under exploration, for tests that inspect its queue
  /// and operation log. Anything fired except through fire() leaves the
  /// execution out of step with the explorer's choices.
  [[nodiscard]] storage::StorageCluster& cluster() noexcept { return cluster_; }

 private:
  [[nodiscard]] bool is_client(ProcessId id) const noexcept {
    return id >= storage::kWriterId;
  }
  [[nodiscard]] Choice event_choice(const sim::Event& ev) const;
  void inject_next();
  void drain_dead();

  scenario::ScenarioSpec spec_;
  storage::StorageCluster cluster_;
  scenario::VisibilityRules visibility_;
  std::string unsupported_;

  std::size_t injected_{0};
  std::uint64_t skipped_{0};    // busy-client entries that became no-ops

  std::vector<std::uint64_t> scratch_;  // digest: pending-event hashes
};

}  // namespace rqs::mc
