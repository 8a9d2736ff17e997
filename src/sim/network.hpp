// Point-to-point message network with a programmable delay policy.
//
// The policy decides, per message, the delivery delay or a drop. Scenario
// drivers use it to realize the paper's executions exactly: synchronous
// periods (delay <= Delta), asynchronous periods (arbitrary delays),
// messages "in transit" forever (the indistinguishability arguments of
// Theorems 3 and 6), lossy channels (consensus model), and partitions.
//
// When no rules are installed and loss is zero — the steady state of every
// latency bench and of most scenario time — send() takes a fast path that
// skips the rule scan and the loss draw entirely, and send_all() queues a
// broadcast as one fan-out event instead of one event per target.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "common/flat_map.hpp"
#include "common/process_set.hpp"
#include "common/retry.hpp"
#include "sim/message.hpp"
#include "sim/simulation.hpp"

namespace rqs::sim {

/// Per-tag send counters. Tag sets are tiny (a dozen static literals per
/// protocol) and stable after warm-up, so counting is a binary search over
/// one cache line. Keys are the tag views themselves (static literals per
/// Message::tag's contract): counting never copies a string.
using TagCounts = FlatMap<std::string_view, std::uint64_t>;

class Network {
 public:
  explicit Network(Simulation& sim) : sim_(sim), default_delay_(sim.delta()) {}

  /// Delay rule: returns the delivery delay for a message, or nullopt to
  /// drop it (equivalently: leave it in transit forever). Rules are
  /// consulted newest-first (see add_rule); the first engaged result wins.
  /// If no rule decides, the default delay (one Delta) applies.
  using Rule = std::function<std::optional<std::optional<SimTime>>(
      ProcessId from, ProcessId to, SimTime now, const Message& msg)>;

  /// Sends msg from `from` to `to`; called by Process::send.
  // rqs-hot-path
  void send(ProcessId from, ProcessId to, MessagePtr msg) {
    if (sim_.crashed(from)) return;
    ++sent_;
    ++sent_by_tag_[msg->tag()];
    if (fast_path()) {
      // Synchronous fault-free steady state: no rule scan, no loss draw,
      // straight into the event queue.
      sim_.deliver_at(sim_.now() + default_delay_, from, to, std::move(msg));
      return;
    }
    send_slow(from, to, std::move(msg));
  }

  /// Sends msg from `from` to every member of `targets`, in ascending id
  /// order; called by Process::send_all. Counters, the observer and the
  /// delivery order are those of one send() per target. On the fast path
  /// the broadcast is one queued fan-out; otherwise rules, loss and
  /// duplication decide each target separately.
  // rqs-hot-path
  void send_all(ProcessId from, ProcessSet targets, MessagePtr msg) {
    if (!fast_path()) {
      for (const ProcessId to : targets) send(from, to, msg);
      return;
    }
    if (sim_.crashed(from) || targets.empty()) return;
    sent_ += targets.size();
    sent_by_tag_[msg->tag()] += targets.size();
    sim_.fan_out(sim_.now() + default_delay_, from, targets, std::move(msg));
  }

  /// Installs a rule (consulted before older rules). Returns an id usable
  /// with remove_rule.
  std::size_t add_rule(Rule rule);
  void remove_rule(std::size_t id);

  /// Convenience rules. All of them match directional (from, to) pairs.
  /// Blocks messages from any process in `froms` to any in `tos`,
  /// forever (drop) — used for "messages remain in transit".
  std::size_t block(ProcessSet froms, ProcessSet tos);
  /// Delays messages on the given directional pairs until absolute time
  /// `until` (delivery exactly at `until`).
  std::size_t hold_until(ProcessSet froms, ProcessSet tos, SimTime until);
  /// Fixed delay for the given directional pairs.
  std::size_t fixed_delay(ProcessSet froms, ProcessSet tos, SimTime delay);

  /// The default delay applied when no rule matches (initially the
  /// simulation's Delta, modeling a synchronous system; raise it or add
  /// rules to model asynchrony).
  void set_default_delay(SimTime d) noexcept { default_delay_ = d; }
  [[nodiscard]] SimTime default_delay() const noexcept { return default_delay_; }

  /// Message-loss probability applied after rules (consensus model allows
  /// lossy channels). 0 by default. Loss decisions come from a seeded
  /// counter-based per-link stream: drop/keep for the k-th send on a link
  /// is a pure function of (seed, from, to, k), so digests are invariant
  /// under schedule order and no indirect call sits on the send path.
  void set_loss(double probability, std::uint64_t seed);

  /// Duplicate-delivery probability (fair-lossy channels also duplicate).
  /// A duplicated message is delivered twice; the copy takes its own loss
  /// draw and a deterministic extra delay in [1, 2 * default_delay], so
  /// duplication doubles as reordering. Same seeded per-link stream
  /// discipline as set_loss.
  void set_duplication(double probability, std::uint64_t seed);

  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t messages_dropped() const noexcept { return dropped_; }
  /// Extra deliveries injected by set_duplication (copies that survived
  /// their own loss draw).
  [[nodiscard]] std::uint64_t messages_duplicated() const noexcept {
    return duplicated_;
  }

  /// Message counts per tag() — the message-complexity accounting used by
  /// the benches (the paper's Section 5 discusses the protocols' message
  /// complexity; best-case counts per operation are reported there).
  [[nodiscard]] const TagCounts& sent_by_tag() const noexcept {
    return sent_by_tag_;
  }
  /// Resets the per-tag and total counters (e.g. between operations).
  void reset_counters() noexcept {
    sent_ = 0;
    dropped_ = 0;
    duplicated_ = 0;
    sent_by_tag_.clear();
  }

  /// Everything of the network but the simulation it sends through, as
  /// save() leaves it for restore(): the rules with their ids and the next
  /// id, the default delay, the loss and duplication settings, the link
  /// ordinals and the counters. The model checker saves it with the
  /// simulation's state.
  class State {
   private:
    friend class Network;

    std::vector<std::pair<std::size_t, Rule>> rules_;
    std::size_t next_rule_id_{0};
    SimTime default_delay_{0};
    double loss_probability_{0.0};
    std::uint64_t loss_seed_{0};
    double dup_probability_{0.0};
    std::uint64_t dup_seed_{0};
    std::vector<std::uint32_t> link_ordinal_;
    std::uint64_t sent_{0};
    std::uint64_t dropped_{0};
    std::uint64_t duplicated_{0};
    TagCounts sent_by_tag_;
  };

  /// Writes the current state into `s`, reusing its buffers.
  void save(State& s) const;
  /// Puts back the state save() wrote into `s`.
  void restore(const State& s);

 private:
  [[nodiscard]] bool fast_path() const noexcept {
    return rules_.empty() && loss_probability_ <= 0.0 && dup_probability_ <= 0.0;
  }
  void send_slow(ProcessId from, ProcessId to, MessagePtr msg);

  /// Uniform [0, 1) draw for the k-th event on link (from, to) — a pure
  /// hash of the stream seed and the link coordinates, nothing stateful.
  [[nodiscard]] static double link_draw(std::uint64_t seed, ProcessId from,
                                        ProcessId to, std::uint64_t k) noexcept {
    return static_cast<double>(link_hash(seed, from, to, k) >> 11) * 0x1.0p-53;
  }
  [[nodiscard]] static std::uint64_t link_hash(std::uint64_t seed,
                                               ProcessId from, ProcessId to,
                                               std::uint64_t k) noexcept {
    return RetryPolicy::mix(
        RetryPolicy::mix(seed ^ (static_cast<std::uint64_t>(from) << 38) ^
                         (static_cast<std::uint64_t>(to) << 19)) +
        k);
  }
  /// Post-increments the send ordinal of link (from, to). The flat
  /// kMaxProcesses^2 table is sized on first use and persists across
  /// loss/duplication windows, so the ordinal sequence of a link never
  /// restarts mid-run.
  [[nodiscard]] std::uint32_t next_ordinal(ProcessId from, ProcessId to) {
    if (link_ordinal_.empty()) {
      link_ordinal_.assign(
          ProcessSet::kMaxProcesses * ProcessSet::kMaxProcesses, 0);
    }
    return link_ordinal_[static_cast<std::size_t>(from) *
                             ProcessSet::kMaxProcesses +
                         to]++;
  }

  Simulation& sim_;
  std::vector<std::pair<std::size_t, Rule>> rules_;  // newest first
  std::size_t next_rule_id_{0};
  SimTime default_delay_;
  double loss_probability_{0.0};
  std::uint64_t loss_seed_{0};
  double dup_probability_{0.0};
  std::uint64_t dup_seed_{0};
  std::vector<std::uint32_t> link_ordinal_;  // per-link send counters
  std::uint64_t sent_{0};
  std::uint64_t dropped_{0};
  std::uint64_t duplicated_{0};
  TagCounts sent_by_tag_;
};

}  // namespace rqs::sim
