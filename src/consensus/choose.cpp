#include "consensus/choose.hpp"

#include <algorithm>
#include <optional>
#include <set>

namespace rqs::consensus {

namespace {

const NewViewAckData* ack_of(const VProof& vproof, ProcessId a) {
  const auto it = vproof.find(a);
  return it == vproof.end() ? nullptr : &it->second;
}

/// All values appearing anywhere in the proof (candidates for v), and all
/// views appearing in Prepview / Updateview (candidates for w).
struct Universe {
  std::set<Value> values;
  std::set<ViewNumber> views;
};

Universe universe_of(const VProof& vproof) {
  Universe u;
  for (const auto& [a, ack] : vproof) {
    if (!is_bottom(ack.prep)) u.values.insert(ack.prep);
    for (const ViewNumber w : ack.prepview) u.views.insert(w);
    for (RoundNumber step = 1; step <= 2; ++step) {
      if (!is_bottom(ack.update[step])) u.values.insert(ack.update[step]);
      for (const ViewNumber w : ack.updateview[step]) u.views.insert(w);
    }
  }
  return u;
}

}  // namespace

bool cand2(Value v, ViewNumber w, const VProof& vproof, ProcessSet q,
           const RefinedQuorumSystem& rqs) {
  // exists B in the adversary with every member of (Q1 n Q) \ B reporting
  // prep = v with w in Prepview. The existential collapses to one witness:
  // with miss = the members of Q1 n Q failing the report, any B works iff
  // B contains miss, and B downward closed makes miss itself the smallest
  // such element — so cand2 iff miss is in the adversary.
  return rqs.any_quorum(QuorumClass::Class1, [&](QuorumId q1id) {
    ProcessSet miss;
    for (const ProcessId a : rqs.quorum_set(q1id) & q) {
      const NewViewAckData* ack = ack_of(vproof, a);
      if (ack == nullptr || ack->prep != v ||
          ack->prepview.find(w) == ack->prepview.end()) {
        miss.insert(a);
      }
    }
    return rqs.adversary().contains(miss);
  });
}

/// The acceptors of Q2 n Q that FAIL C3's per-acceptor consequent for
/// (v, w, Q2): update[1] = v, w in Updateview[1], Q2 in Updateq[1, w].
ProcessSet c3_miss(Value v, ViewNumber w, QuorumId q2id, const VProof& vproof,
                   ProcessSet q, const RefinedQuorumSystem& rqs) {
  ProcessSet miss;
  for (const ProcessId a : rqs.quorum_set(q2id) & q) {
    const NewViewAckData* ack = ack_of(vproof, a);
    if (ack == nullptr || ack->update[1] != v ||
        ack->updateview[1].find(w) == ack->updateview[1].end()) {
      miss.insert(a);
      continue;
    }
    const auto it = ack->updateq.find(StepView{1, w});
    if (it == ack->updateq.end() || it->second.find(q2id) == it->second.end()) {
      miss.insert(a);
    }
  }
  return miss;
}

/// exists B in the adversary with C3(v, w, variant, Q2, B)? Collapsed to
/// the single witness B = miss (the acceptors of Q2 n Q failing C3's
/// consequent): any B satisfying C3 must contain miss, B downward closed
/// puts miss in the adversary, and both P3a and P3b are antitone in B, so
/// C3 then also holds at miss itself.
bool c3_some_b(Value v, ViewNumber w, char variant, QuorumId q2id,
               const VProof& vproof, ProcessSet q,
               const RefinedQuorumSystem& rqs) {
  const ProcessSet miss = c3_miss(v, w, q2id, vproof, q, rqs);
  if (!rqs.adversary().contains(miss)) return false;
  const ProcessSet q2 = rqs.quorum_set(q2id);
  return (variant == 'a') ? rqs.p3a(q2, q, miss) : rqs.p3b(q2, q, miss);
}

bool cand3(Value v, ViewNumber w, char variant, const VProof& vproof,
           ProcessSet q, const RefinedQuorumSystem& rqs) {
  return rqs.any_quorum(QuorumClass::Class2, [&](QuorumId q2id) {
    return c3_some_b(v, w, variant, q2id, vproof, q, rqs);
  });
}

bool valid3(Value v, ViewNumber w, char variant, const VProof& vproof,
            ProcessSet q, const RefinedQuorumSystem& rqs) {
  // valid3 fails iff C3 holds for some class 2 quorum Q2 and an acceptor
  // of Q2 n Q neither confirms (v, w) nor has every Prepview view above w.
  return !rqs.any_quorum(QuorumClass::Class2, [&](QuorumId q2id) {
    // The per-acceptor consequent below does not depend on B, so "for all
    // B where C3 holds, the consequent holds" reduces to "if C3 holds for
    // SOME B (the collapsed witness), the consequent holds".
    if (!c3_some_b(v, w, variant, q2id, vproof, q, rqs)) return false;
    for (const ProcessId a : rqs.quorum_set(q2id) & q) {
      const NewViewAckData* ack = ack_of(vproof, a);
      if (ack == nullptr) continue;  // not part of the proof quorum
      const bool confirms =
          ack->prep == v && ack->prepview.find(w) != ack->prepview.end();
      const bool all_above = std::all_of(
          ack->prepview.begin(), ack->prepview.end(),
          [w](ViewNumber wp) { return wp > w; });
      if (!confirms && !all_above) return true;
    }
    return false;
  });
}

bool cand4(Value v, ViewNumber w, const VProof& vproof, ProcessSet q) {
  for (const ProcessId a : q) {
    const NewViewAckData* ack = ack_of(vproof, a);
    if (ack != nullptr && ack->update[2] == v &&
        ack->updateview[2].find(w) != ack->updateview[2].end()) {
      return true;
    }
  }
  return false;
}

ChooseResult choose(Value v_prime, const VProof& vproof, ProcessSet q,
                    const RefinedQuorumSystem& rqs) {
  ChooseResult result{v_prime, false};  // line 10
  const Universe u = universe_of(vproof);

  // Line 11-12: find viewmax, the highest view of any candidate.
  std::optional<ViewNumber> viewmax;
  for (const ViewNumber w : u.views) {
    for (const Value v : u.values) {
      if (cand2(v, w, vproof, q, rqs) || cand3(v, w, 'a', vproof, q, rqs) ||
          cand3(v, w, 'b', vproof, q, rqs) || cand4(v, w, vproof, q)) {
        if (!viewmax || w > *viewmax) viewmax = w;
      }
    }
  }
  if (!viewmax) return result;  // line 21: no candidate, keep v'

  const ViewNumber w = *viewmax;
  // Line 13-14: Cand3(v, w, 'a') or Cand4(v, w) has top priority.
  for (const Value v : u.values) {
    if (cand3(v, w, 'a', vproof, q, rqs) || cand4(v, w, vproof, q)) {
      result.value = v;
      return result;
    }
  }
  // Line 15-16: two distinct Cand3(*, w, 'b') candidates => abort.
  std::vector<Value> b_candidates;
  for (const Value v : u.values) {
    if (cand3(v, w, 'b', vproof, q, rqs)) b_candidates.push_back(v);
  }
  if (b_candidates.size() >= 2) {
    result.abort = true;
    return result;
  }
  // Line 17-19: a single Cand3(v, w, 'b') candidate.
  if (b_candidates.size() == 1) {
    const Value v = b_candidates.front();
    if (valid3(v, w, 'b', vproof, q, rqs)) {
      result.value = v;
    } else {
      result.abort = true;
    }
    return result;
  }
  // Line 20: fall back to the (unique, by Property 2) Cand2 candidate.
  for (const Value v : u.values) {
    if (cand2(v, w, vproof, q, rqs)) {
      result.value = v;
      return result;
    }
  }
  return result;
}

}  // namespace rqs::consensus
