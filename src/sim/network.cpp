#include "sim/network.hpp"

#include <algorithm>

namespace rqs::sim {

void Network::send_slow(ProcessId from, ProcessId to, MessagePtr msg) {
  std::optional<SimTime> delay;
  bool decided = false;
  for (const auto& [id, rule] : rules_) {
    const auto decision = rule(from, to, sim_.now(), *msg);
    if (decision.has_value()) {
      decided = true;
      if (!decision->has_value()) {
        ++dropped_;
        return;  // dropped / in transit forever
      }
      delay = **decision;
      break;
    }
  }
  if (!decided) delay = default_delay_;
  if (loss_probability_ <= 0.0 && dup_probability_ <= 0.0) {
    sim_.deliver_at(sim_.now() + *delay, from, to, std::move(msg));
    return;
  }
  // Seeded counter-based per-link streams: the k-th send on (from, to)
  // consumes draw ordinals 2k (primary) and 2k+1 (duplicate copy), so
  // every drop/duplicate decision is a pure function of (seed, from, to,
  // send ordinal) — schedule-order invariant by construction.
  const std::uint64_t k = next_ordinal(from, to);
  if (dup_probability_ > 0.0 &&
      link_draw(dup_seed_, from, to, 2 * k) < dup_probability_ &&
      !(loss_probability_ > 0.0 &&
        link_draw(loss_seed_, from, to, 2 * k + 1) < loss_probability_)) {
    // The copy lands with a deterministic extra delay in
    // [1, 2 * default_delay], so duplication also exercises reordering.
    const auto span =
        static_cast<std::uint64_t>(std::max<SimTime>(2 * default_delay_, 1));
    const auto extra = static_cast<SimTime>(
        1 + link_hash(dup_seed_, from, to, 2 * k + 1) % span);
    ++duplicated_;
    sim_.deliver_at(sim_.now() + *delay + extra, from, to, msg);
  }
  if (loss_probability_ > 0.0 &&
      link_draw(loss_seed_, from, to, 2 * k) < loss_probability_) {
    ++dropped_;
    return;
  }
  sim_.deliver_at(sim_.now() + *delay, from, to, std::move(msg));
}

std::size_t Network::add_rule(Rule rule) {
  const std::size_t id = next_rule_id_++;
  rules_.insert(rules_.begin(), {id, std::move(rule)});
  return id;
}

void Network::remove_rule(std::size_t id) {
  rules_.erase(std::remove_if(rules_.begin(), rules_.end(),
                              [id](const auto& r) { return r.first == id; }),
               rules_.end());
}

std::size_t Network::block(ProcessSet froms, ProcessSet tos) {
  return add_rule([froms, tos](ProcessId from, ProcessId to, SimTime,
                               const Message&) -> std::optional<std::optional<SimTime>> {
    if (froms.contains(from) && tos.contains(to)) return std::optional<SimTime>{};
    return std::nullopt;
  });
}

std::size_t Network::hold_until(ProcessSet froms, ProcessSet tos, SimTime until) {
  return add_rule([froms, tos, until](
                      ProcessId from, ProcessId to, SimTime now,
                      const Message&) -> std::optional<std::optional<SimTime>> {
    if (froms.contains(from) && tos.contains(to)) {
      return std::optional<SimTime>{std::max<SimTime>(until - now, 0)};
    }
    return std::nullopt;
  });
}

std::size_t Network::fixed_delay(ProcessSet froms, ProcessSet tos, SimTime delay) {
  return add_rule([froms, tos, delay](
                      ProcessId from, ProcessId to, SimTime,
                      const Message&) -> std::optional<std::optional<SimTime>> {
    if (froms.contains(from) && tos.contains(to)) return std::optional<SimTime>{delay};
    return std::nullopt;
  });
}

void Network::save(State& s) const {
  s.rules_ = rules_;
  s.next_rule_id_ = next_rule_id_;
  s.default_delay_ = default_delay_;
  s.loss_probability_ = loss_probability_;
  s.loss_seed_ = loss_seed_;
  s.dup_probability_ = dup_probability_;
  s.dup_seed_ = dup_seed_;
  s.link_ordinal_ = link_ordinal_;
  s.sent_ = sent_;
  s.dropped_ = dropped_;
  s.duplicated_ = duplicated_;
  s.sent_by_tag_ = sent_by_tag_;
}

void Network::restore(const State& s) {
  rules_ = s.rules_;
  next_rule_id_ = s.next_rule_id_;
  default_delay_ = s.default_delay_;
  loss_probability_ = s.loss_probability_;
  loss_seed_ = s.loss_seed_;
  dup_probability_ = s.dup_probability_;
  dup_seed_ = s.dup_seed_;
  link_ordinal_ = s.link_ordinal_;
  sent_ = s.sent_;
  dropped_ = s.dropped_;
  duplicated_ = s.duplicated_;
  sent_by_tag_ = s.sent_by_tag_;
}

void Network::set_loss(double probability, std::uint64_t seed) {
  loss_probability_ = probability;
  loss_seed_ = seed;
}

void Network::set_duplication(double probability, std::uint64_t seed) {
  dup_probability_ = probability;
  dup_seed_ = seed;
}

}  // namespace rqs::sim
