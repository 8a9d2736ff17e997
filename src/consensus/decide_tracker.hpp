// The decision rules shared by acceptors and learners (Figure 15, lines
// 51-53): decide v upon receiving
//   - the same update1<v, view, *>  from a class 1 quorum,
//   - the same update2<v, view, Q2> from Q2 itself (a class 2 quorum), or
//   - the same update3<v, view, *>  from any quorum.
#pragma once

#include <map>
#include <optional>
#include <tuple>

#include "consensus/messages.hpp"
#include "core/rqs.hpp"

namespace rqs::consensus {

class DecideTracker {
 public:
  explicit DecideTracker(const RefinedQuorumSystem& rqs) : rqs_(&rqs) {}

  /// Feeds an update message received from `sender`; returns the decided
  /// value when one of the three rules fires (first firing only).
  std::optional<Value> feed(ProcessId sender, const UpdateMsg& m) {
    if (decided_) return std::nullopt;
    switch (m.step) {
      case 1: {
        ProcessSet& senders = update1_[{m.view, m.value}];
        senders.insert(sender);
        if (rqs_->has_quorum_in(senders, QuorumClass::Class1)) {
          return decide(m.value, 1, m.view);
        }
        return std::nullopt;
      }
      case 2: {
        // The quorum id inside the message must match the sender set:
        // "the same update2<v, view, Q2> from Q2 in QC2".
        if (m.quorum == kInvalidQuorum || m.quorum >= rqs_->quorum_count()) {
          return std::nullopt;
        }
        const Quorum& q2 = rqs_->quorum(m.quorum);
        if (q2.cls == QuorumClass::Class3) return std::nullopt;
        ProcessSet& senders = update2_[{m.view, m.value, m.quorum}];
        senders.insert(sender);
        if (rqs_->quorum_set(m.quorum).subset_of(senders)) {
          return decide(m.value, 2, m.view);
        }
        return std::nullopt;
      }
      case 3: {
        ProcessSet& senders = update3_[{m.view, m.value}];
        senders.insert(sender);
        if (rqs_->has_quorum_in(senders)) return decide(m.value, 3, m.view);
        return std::nullopt;
      }
      default:
        return std::nullopt;
    }
  }

  [[nodiscard]] bool decided() const noexcept { return decided_; }
  [[nodiscard]] Value decision() const noexcept { return decision_; }
  /// Which rule fired (1/2/3 — the quorum-class ladder position of the
  /// decision); 0 before any decision.
  [[nodiscard]] RoundNumber decided_step() const noexcept { return decided_step_; }
  /// The view the deciding updates carried; meaningful once decided().
  [[nodiscard]] ViewNumber decided_view() const noexcept { return decided_view_; }

 private:
  std::optional<Value> decide(Value v, RoundNumber step, ViewNumber view) {
    decided_ = true;
    decision_ = v;
    decided_step_ = step;
    decided_view_ = view;
    return v;
  }

  const RefinedQuorumSystem* rqs_;
  bool decided_{false};
  Value decision_{kNil};
  RoundNumber decided_step_{0};
  ViewNumber decided_view_{0};
  std::map<std::tuple<ViewNumber, Value>, ProcessSet> update1_;
  std::map<std::tuple<ViewNumber, Value, QuorumId>, ProcessSet> update2_;
  std::map<std::tuple<ViewNumber, Value>, ProcessSet> update3_;
};

}  // namespace rqs::consensus
