#include "core/rqs.hpp"

#include <algorithm>
#include <cassert>
#include <span>

#include "core/check_engine.hpp"

namespace rqs {

template <class Set>
std::string BasicPropertyViolation<Set>::to_string() const {
  std::string out = "Property " + std::to_string(property) + " violated: " + detail;
  return out;
}

template <class Set>
std::string BasicCheckResult<Set>::to_string() const {
  if (ok()) return "all RQS properties hold";
  std::string out;
  for (const BasicPropertyViolation<Set>& v : violations) {
    if (!out.empty()) out += "\n";
    out += v.to_string();
  }
  return out;
}

template <class Set>
BasicRefinedQuorumSystem<Set>::BasicRefinedQuorumSystem(
    BasicAdversary<Set> adversary, std::vector<BasicQuorum<Set>> quorums)
    : adversary_(std::move(adversary)), quorums_(std::move(quorums)) {
  [[maybe_unused]] const Set everyone = Set::universe(universe_size());
  for (QuorumId id = 0; id < quorums_.size(); ++id) {
    [[maybe_unused]] const BasicQuorum<Set>& q = quorums_[id];
    assert(q.set.subset_of(everyone));
    switch (quorums_[id].cls) {
      case QuorumClass::Class1:
        qc1_.push_back(id);
        qc2_.push_back(id);
        break;
      case QuorumClass::Class2:
        qc2_.push_back(id);
        break;
      case QuorumClass::Class3:
        break;
    }
  }
  quorums_containing_.resize(universe_size());
  for (QuorumId id = 0; id < quorums_.size(); ++id) {
    for (const ProcessId member : quorums_[id].set) {
      quorums_containing_[member].push_back(id);
    }
  }
}

template <class Set>
std::optional<QuorumId> BasicRefinedQuorumSystem<Set>::find(Set s) const {
  for (QuorumId id = 0; id < quorums_.size(); ++id) {
    if (quorums_[id].set == s) return id;
  }
  return std::nullopt;
}

template <class Set>
std::optional<QuorumId> BasicRefinedQuorumSystem<Set>::best_available(
    Set alive) const {
  std::optional<QuorumId> best;
  auto rank = [this](QuorumId id) {
    return static_cast<int>(quorums_[id].cls);
  };
  for (QuorumId id = 0; id < quorums_.size(); ++id) {
    if (!quorums_[id].set.subset_of(alive)) continue;
    if (!best || rank(id) < rank(*best)) best = id;
  }
  return best;
}

template <class Set>
bool BasicRefinedQuorumSystem<Set>::p3a(Set q2, Set q, Set b) const {
  return adversary_.is_basic((q2 & q) - b);
}

template <class Set>
bool BasicRefinedQuorumSystem<Set>::p3b(Set q2, Set q, Set b) const {
  if (qc1_.empty()) return false;
  for (const QuorumId q1 : qc1_) {
    if (((quorums_[q1].set & q2 & q) - b).empty()) return false;
  }
  return true;
}

template <class Set>
bool BasicRefinedQuorumSystem<Set>::check_property1(BasicCheckResult<Set>& out,
                                                    std::size_t max) const {
  bool ok = true;
  for (QuorumId a = 0; a < quorums_.size(); ++a) {
    for (QuorumId b = a; b < quorums_.size(); ++b) {
      const Set inter = quorums_[a].set & quorums_[b].set;
      if (!adversary_.is_basic(inter)) {
        ok = false;
        out.violations.push_back(BasicPropertyViolation<Set>{
            .property = 1,
            .q_a = a,
            .q_b = b,
            .q_c = kInvalidQuorum,
            .b1 = inter,
            .b2 = {},
            .detail = "Q" + std::to_string(a) + " n Q" + std::to_string(b) +
                      " = " + inter.to_string() + " is an element of B"});
        if (max != 0 && out.violations.size() >= max) return false;
      }
    }
  }
  return ok;
}

template <class Set>
bool BasicRefinedQuorumSystem<Set>::check_property2(BasicCheckResult<Set>& out,
                                                    std::size_t max) const {
  bool ok = true;
  for (std::size_t i = 0; i < qc1_.size(); ++i) {
    for (std::size_t j = i; j < qc1_.size(); ++j) {
      const Set q1q1 = quorums_[qc1_[i]].set & quorums_[qc1_[j]].set;
      for (QuorumId c = 0; c < quorums_.size(); ++c) {
        const Set inter = q1q1 & quorums_[c].set;
        if (!adversary_.is_large(inter)) {
          ok = false;
          out.violations.push_back(BasicPropertyViolation<Set>{
              .property = 2,
              .q_a = qc1_[i],
              .q_b = qc1_[j],
              .q_c = c,
              .b1 = inter,
              .b2 = {},
              .detail = "Q" + std::to_string(qc1_[i]) + " n Q" +
                        std::to_string(qc1_[j]) + " n Q" + std::to_string(c) +
                        " = " + inter.to_string() +
                        " is covered by a union of two elements of B"});
          if (max != 0 && out.violations.size() >= max) return false;
        }
      }
    }
  }
  return ok;
}

template <class Set>
bool BasicRefinedQuorumSystem<Set>::check_property3(BasicCheckResult<Set>& out,
                                                    std::size_t max) const {
  bool ok = true;
  // Per-(Q2, Q, B) disjunction; quantifying B over maximal elements only is
  // sound and complete because both disjuncts are antitone in B: shrinking
  // B can only keep P3a/P3b true (set differences grow, and supersets of
  // basic sets are basic since B is downward closed).
  //
  // The maximal-element view is hoisted out of the (Q2, Q) loops: the old
  // code materialized a fresh vector — C(n, k)-sized for threshold
  // adversaries — on every quorum pair. Threshold adversaries take the
  // analytic branch below and never need the view at all.
  const std::span<const Set> maximal = adversary_.is_threshold()
                                           ? std::span<const Set>{}
                                           : adversary_.maximal_view();
  for (const QuorumId q2id : qc2_) {
    const Set q2 = quorums_[q2id].set;
    for (QuorumId qid = 0; qid < quorums_.size(); ++qid) {
      const Set q = quorums_[qid].set;
      if (adversary_.is_threshold()) {
        // Analytic form (Section 2.1 of the paper): P3 holds for (Q2, Q)
        // iff |Q2 n Q| >= 2k+1, or QC1 is nonempty and every class 1
        // quorum satisfies |Q1 n Q2 n Q| >= k+1. Under the symmetric
        // threshold adversary this is equivalent to the per-B statement.
        const std::size_t k = adversary_.threshold_k();
        const Set q2q = q2 & q;
        bool holds = q2q.size() >= 2 * k + 1;
        if (!holds && !qc1_.empty()) {
          holds = std::all_of(qc1_.begin(), qc1_.end(), [&](QuorumId q1) {
            return (quorums_[q1].set & q2q).size() >= k + 1;
          });
        }
        if (!holds) {
          ok = false;
          out.violations.push_back(BasicPropertyViolation<Set>{
              .property = 3,
              .q_a = q2id,
              .q_b = qid,
              .q_c = kInvalidQuorum,
              .b1 = {},
              .b2 = {},
              .detail = "threshold check: |Q" + std::to_string(q2id) + " n Q" +
                        std::to_string(qid) + "| = " +
                        std::to_string(q2q.size()) + " < 2k+1 and some class 1"
                        " quorum meets the intersection in <= k elements"});
          if (max != 0 && out.violations.size() >= max) return false;
        }
        continue;
      }
      for (const Set b : maximal) {
        if (p3a(q2, q, b) || p3b(q2, q, b)) continue;
        ok = false;
        out.violations.push_back(BasicPropertyViolation<Set>{
            .property = 3,
            .q_a = q2id,
            .q_b = qid,
            .q_c = kInvalidQuorum,
            .b1 = b,
            .b2 = {},
            .detail = "neither P3a nor P3b holds for Q2=Q" +
                      std::to_string(q2id) + ", Q=Q" + std::to_string(qid) +
                      ", B=" + b.to_string()});
        if (max != 0 && out.violations.size() >= max) return false;
      }
    }
  }
  return ok;
}

template <class Set>
bool BasicRefinedQuorumSystem<Set>::check_property3_conference() const {
  // Disjunction outside the quantifier over B (the PODC'07 statement,
  // corrected by the journal revision): for every (Q2, Q), either P3a holds
  // for ALL B, or P3b holds for ALL B.
  //
  // As in check_property3, the maximal-element view is hoisted out of the
  // loops; for threshold adversaries it is materialized once into the
  // adversary's cache instead of once per (Q2, Q) pair.
  const std::span<const Set> maximal = adversary_.maximal_view();
  for (const QuorumId q2id : qc2_) {
    const Set q2 = quorums_[q2id].set;
    for (QuorumId qid = 0; qid < quorums_.size(); ++qid) {
      const Set q = quorums_[qid].set;
      bool all_a = true;
      bool all_b = true;
      for (const Set b : maximal) {
        all_a = all_a && p3a(q2, q, b);
        all_b = all_b && p3b(q2, q, b);
        if (!all_a && !all_b) return false;
      }
    }
  }
  return true;
}

template <class Set>
BasicCheckResult<Set> BasicRefinedQuorumSystem<Set>::check(
    std::size_t max_violations) const {
  // Routed through the cached check engine; the check_property* members
  // above stay as the naive reference oracle the engine is differentially
  // tested against (tests/check_engine_test.cpp).
  return BasicCheckEngine<Set>{*this}.check(max_violations);
}

template <class Set>
std::string BasicRefinedQuorumSystem<Set>::to_string() const {
  std::string out = "RQS over " + adversary_.to_string() + "\n";
  for (QuorumId id = 0; id < quorums_.size(); ++id) {
    out += "  Q" + std::to_string(id) + " = " + quorums_[id].set.to_string() +
           "  [" + rqs::to_string(quorums_[id].cls) + "]\n";
  }
  return out;
}

template struct BasicPropertyViolation<ProcessSet>;
template struct BasicPropertyViolation<WideProcessSet>;
template struct BasicCheckResult<ProcessSet>;
template struct BasicCheckResult<WideProcessSet>;
template class BasicRefinedQuorumSystem<ProcessSet>;
template class BasicRefinedQuorumSystem<WideProcessSet>;

}  // namespace rqs
