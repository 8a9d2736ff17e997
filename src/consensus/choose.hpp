// The choose() function (Figure 13) — the heart of the consensus
// algorithm's safety. Given a vProof (new_view_ack data from a quorum Q of
// acceptors), choose() either selects the value that may have been decided
// in an earlier view, or detects that Q contains a Byzantine acceptor and
// aborts (the proposer then tries another quorum).
//
// Pure functions over data: independently unit-testable, and used both by
// proposers (consult phase) and by acceptors (validating the vProof inside
// a prepare message).
#pragma once

#include "consensus/messages.hpp"
#include "core/rqs.hpp"

namespace rqs::consensus {

struct ChooseResult {
  Value value{kNil};
  bool abort{false};
};

/// Cand2(v, w) (Fig. 13 line 1): some class 1 quorum Q1 and adversary
/// element B exist with every acceptor of (Q1 n Q) \ B reporting that it
/// prepared v in w.
[[nodiscard]] bool cand2(Value v, ViewNumber w, const VProof& vproof,
                         ProcessSet q, const RefinedQuorumSystem& rqs);

/// Cand3(v, w, char) (line 3): exists (Q2, B) with C3(v, w, char, Q2, B),
/// where C3 (line 2) says P3char(Q2, Q, B) holds and every acceptor of
/// (Q2 n Q) \ B reports it 1-updated v in w with quorum Q2.
[[nodiscard]] bool cand3(Value v, ViewNumber w, char variant, const VProof& vproof,
                         ProcessSet q, const RefinedQuorumSystem& rqs);

/// Valid3(v, w, char) (line 4): for every (Q2, B) where C3 holds, every
/// acceptor of Q2 n Q either confirms it prepared v in w, or all its
/// prepared views are above w.
[[nodiscard]] bool valid3(Value v, ViewNumber w, char variant, const VProof& vproof,
                          ProcessSet q, const RefinedQuorumSystem& rqs);

/// Cand4(v, w) (line 5): some acceptor of Q reports it 2-updated v in w.
[[nodiscard]] bool cand4(Value v, ViewNumber w, const VProof& vproof, ProcessSet q);

/// choose(v', vProof, Q) (lines 10-21). `vproof` must contain exactly the
/// (already signature-validated) acks of the acceptors of quorum `q`.
[[nodiscard]] ChooseResult choose(Value v_prime, const VProof& vproof, ProcessSet q,
                                  const RefinedQuorumSystem& rqs);

}  // namespace rqs::consensus
