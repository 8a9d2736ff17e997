// Refined quorum systems (Definition 2 of the paper).
//
// A refined quorum system RQS over a set S with adversary B is a set of
// quorums with two nested subclasses QC1 (class 1) and QC2 (class 2),
// QC1 subset of QC2 subset of RQS, such that:
//
//   Property 1:  for all Q, Q' in RQS:               Q n Q' not in B.
//   Property 2:  for all Q1, Q1' in QC1, Q in RQS,
//                B1, B2 in B:        Q1 n Q1' n Q not subset of B1 u B2.
//   Property 3:  for all Q2 in QC2, Q in RQS, B in B:
//                P3a(Q2,Q,B):   Q2 n Q \ B not in B,           or
//                P3b(Q2,Q,B):   QC1 nonempty and for all Q1 in QC1:
//                               Q1 n Q2 n Q \ B nonempty.
//
// The disjunction of Property 3 is *per element B* (this is the corrected,
// journal-revision statement; the PODC'07 conference version erroneously
// placed the disjunction outside the quantifier over B — see the paper's
// Appendix C errata. check_property3_conference() implements the erroneous
// variant so tests can demonstrate the difference).
//
// Quorums are identified by their index in the quorum list (QuorumId);
// both protocols ship quorum ids inside messages (the paper's QC'2 sets),
// so stable ids are part of the public API.
//
// Everything here is templated on the process-set width. The protocol
// layers use the historical aliases (Quorum, RefinedQuorumSystem, ... =
// the BasicProcessSet<1> instantiations); the Wide* aliases carry the same
// machinery to universes of up to 256 processes for the analysis and
// hierarchical-construction paths.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "core/adversary.hpp"

namespace rqs {

/// Index of a quorum within a refined quorum system.
using QuorumId = std::uint32_t;

inline constexpr QuorumId kInvalidQuorum = static_cast<QuorumId>(-1);

/// The class of a quorum. Class 1 quorums are also class 2 quorums, which
/// are also class 3 (plain) quorums; the enum value is the *best* class.
enum class QuorumClass : std::uint8_t { Class1 = 1, Class2 = 2, Class3 = 3 };

[[nodiscard]] constexpr const char* to_string(QuorumClass c) noexcept {
  switch (c) {
    case QuorumClass::Class1: return "class-1";
    case QuorumClass::Class2: return "class-2";
    case QuorumClass::Class3: return "class-3";
  }
  return "?";
}

/// One annotated quorum.
template <class Set>
struct BasicQuorum {
  Set set;
  QuorumClass cls{QuorumClass::Class3};
};

/// A violation of one of the three properties, with the witnesses that
/// falsify it; to_string() renders a human-readable diagnosis.
template <class Set>
struct BasicPropertyViolation {
  int property{0};            // 1, 2 or 3
  QuorumId q_a{kInvalidQuorum};   // P1: Q     P2: Q1     P3: Q2
  QuorumId q_b{kInvalidQuorum};   // P1: Q'    P2: Q1'    P3: Q
  QuorumId q_c{kInvalidQuorum};   // P2/P3: the third quorum Q / witness Q1
  Set b1;                     // offending adversary element
  Set b2;                     // second element (P2 only)
  std::string detail;

  [[nodiscard]] std::string to_string() const;
};

/// Outcome of checking a refined quorum system against its adversary.
template <class Set>
struct BasicCheckResult {
  std::vector<BasicPropertyViolation<Set>> violations;
  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  [[nodiscard]] std::string to_string() const;
};

template <class Set>
class BasicRefinedQuorumSystem {
 public:
  using SetType = Set;
  using QuorumType = BasicQuorum<Set>;

  /// Builds a refined quorum system over `adversary.universe_size()`
  /// processes. Quorum classes must already be nested in the input in the
  /// sense that any class assignment is legal syntax; whether the
  /// *properties* hold is reported by check(). Duplicate process sets are
  /// allowed (the paper never forbids them) but usually undesirable.
  BasicRefinedQuorumSystem(BasicAdversary<Set> adversary,
                           std::vector<BasicQuorum<Set>> quorums);

  [[nodiscard]] const BasicAdversary<Set>& adversary() const noexcept {
    return adversary_;
  }
  [[nodiscard]] std::size_t universe_size() const noexcept {
    return adversary_.universe_size();
  }

  [[nodiscard]] std::size_t quorum_count() const noexcept { return quorums_.size(); }
  [[nodiscard]] const BasicQuorum<Set>& quorum(QuorumId id) const {
    return quorums_.at(id);
  }
  [[nodiscard]] Set quorum_set(QuorumId id) const { return quorums_.at(id).set; }
  [[nodiscard]] std::span<const BasicQuorum<Set>> quorums() const noexcept {
    return quorums_;
  }

  /// Ids of quorums of class <= c (remember class 1 quorums are class 2
  /// quorums are class 3 quorums).
  [[nodiscard]] const std::vector<QuorumId>& class1_ids() const noexcept { return qc1_; }
  [[nodiscard]] const std::vector<QuorumId>& class2_ids() const noexcept { return qc2_; }

  /// The containment query the protocols ask: does some quorum of class
  /// <= `c` satisfy `pred(QuorumId)`? Visits ids in ascending order (all
  /// quorums by index for class 3) and stops at the first hit, so a caller
  /// that acts on the first acceptable quorum gets the lowest id. A `pred`
  /// that never returns true visits every quorum of class <= `c`.
  template <class Pred>
  bool any_quorum(QuorumClass c, Pred pred) const {
    if (c == QuorumClass::Class3) {
      for (QuorumId id = 0; id < quorums_.size(); ++id) {
        if (pred(id)) return true;
      }
      return false;
    }
    const std::vector<QuorumId>& ids = c == QuorumClass::Class1 ? qc1_ : qc2_;
    return std::any_of(ids.begin(), ids.end(), pred);
  }

  /// Is some quorum of class <= `c` inside `s`? ("acks from a class 1
  /// quorum", "received from some quorum Q", ...)
  [[nodiscard]] bool has_quorum_in(Set s, QuorumClass c = QuorumClass::Class3) const {
    return any_quorum(c, [&](QuorumId id) { return quorums_[id].set.subset_of(s); });
  }

  /// Is some quorum named in `ids` inside `s`? For id lists the caller
  /// holds, like the paper's QC'2 and X.
  template <std::ranges::input_range Ids>
  [[nodiscard]] bool has_quorum_in(Set s, const Ids& ids) const {
    return std::ranges::any_of(ids, [&](QuorumId id) { return quorum_set(id).subset_of(s); });
  }

  [[nodiscard]] bool has_class1() const noexcept { return !qc1_.empty(); }
  [[nodiscard]] bool has_class2() const noexcept { return !qc2_.empty(); }

  /// Ids of the quorums containing process i — the inverted membership
  /// index, precomputed once per system. Protocols use it to extend
  /// "which quorums have fully responded" incrementally: an ack from i
  /// can only complete quorums_containing(i).
  [[nodiscard]] const std::vector<QuorumId>& quorums_containing(ProcessId i) const {
    return quorums_containing_.at(i);
  }

  /// First quorum id whose process set equals `s`, if any.
  [[nodiscard]] std::optional<QuorumId> find(Set s) const;

  /// First quorum (of any class) fully contained in the `alive` set, if
  /// any; protocols use this to ask "is some quorum entirely correct?".
  /// When several qualify, the best (lowest) class wins.
  [[nodiscard]] std::optional<QuorumId> best_available(Set alive) const;

  /// The paper's P3a(Q2, Q, B): Q2 n Q \ B is not in B.
  [[nodiscard]] bool p3a(Set q2, Set q, Set b) const;

  /// The paper's P3b(Q2, Q, B): QC1 is nonempty and Q1 n Q2 n Q \ B is
  /// nonempty for every class 1 quorum Q1.
  [[nodiscard]] bool p3b(Set q2, Set q, Set b) const;

  /// Full property check (Definition 2). Stops after `max_violations`
  /// findings (0 = collect everything). Routed through CheckEngine
  /// (core/check_engine.hpp), which precomputes per-system state; callers
  /// that check one system repeatedly should build a CheckEngine themselves
  /// and reuse it across calls.
  [[nodiscard]] BasicCheckResult<Set> check(std::size_t max_violations = 1) const;

  /// The naive per-property checkers. These are the *reference oracle*:
  /// straight transcriptions of Definition 2 with no caching, against which
  /// CheckEngine is differentially tested. Prefer check()/valid() (engine-
  /// backed) in production paths.
  [[nodiscard]] bool check_property1(BasicCheckResult<Set>& out, std::size_t max) const;
  [[nodiscard]] bool check_property2(BasicCheckResult<Set>& out, std::size_t max) const;
  [[nodiscard]] bool check_property3(BasicCheckResult<Set>& out, std::size_t max) const;

  /// The erroneous conference-version Property 3 (disjunction outside the
  /// quantifier over B): for all Q2, Q: (for all B: P3a) or (for all B:
  /// P3b). Strictly stronger than the corrected property; provided so tests
  /// and benches can exhibit structures separating the two.
  [[nodiscard]] bool check_property3_conference() const;

  /// True iff all three properties hold.
  [[nodiscard]] bool valid() const { return check(1).ok(); }

  [[nodiscard]] std::string to_string() const;

 private:
  BasicAdversary<Set> adversary_;
  std::vector<BasicQuorum<Set>> quorums_;
  std::vector<QuorumId> qc1_;
  std::vector<QuorumId> qc2_;
  std::vector<std::vector<QuorumId>> quorums_containing_;  // by ProcessId
};

/// Protocol-width aliases (universes up to 64 processes) — the historical
/// names every protocol-layer call site uses.
using Quorum = BasicQuorum<ProcessSet>;
using PropertyViolation = BasicPropertyViolation<ProcessSet>;
using CheckResult = BasicCheckResult<ProcessSet>;
using RefinedQuorumSystem = BasicRefinedQuorumSystem<ProcessSet>;

/// Analysis-width aliases (universes up to 256 processes).
using WideQuorum = BasicQuorum<WideProcessSet>;
using WidePropertyViolation = BasicPropertyViolation<WideProcessSet>;
using WideCheckResult = BasicCheckResult<WideProcessSet>;
using WideRefinedQuorumSystem = BasicRefinedQuorumSystem<WideProcessSet>;

// Instantiated once in rqs.cpp for the two supported widths.
extern template struct BasicPropertyViolation<ProcessSet>;
extern template struct BasicPropertyViolation<WideProcessSet>;
extern template struct BasicCheckResult<ProcessSet>;
extern template struct BasicCheckResult<WideProcessSet>;
extern template class BasicRefinedQuorumSystem<ProcessSet>;
extern template class BasicRefinedQuorumSystem<WideProcessSet>;

}  // namespace rqs
