// Wire messages and signed-payload encodings of the RQS consensus
// algorithm (Figures 9-15).
//
// Three kinds of payloads are signed in the protocol:
//   * update_step<v, w> messages (archived in acceptors' `old` sets and
//     re-signed on demand via sign_req/sign_ack to build Updateproof),
//   * view_change<nextView> messages (collected into viewProof), and
//   * new_view_ack messages (collected into vProof).
// Payload encodings are canonical strings; the SignatureAuthority checks
// (signer, payload) pairs, which is exactly the unforgeability the model
// grants (Section 4.1).
#pragma once

#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/rqs.hpp"
#include "sim/message.hpp"
#include "sim/signature.hpp"

namespace rqs::consensus {

/// "nil" for Prep / Update variables.
inline constexpr Value kNil = kBottom;

/// A signed update_step<v, w> message: the building block of Updateproof.
struct SignedUpdate {
  Value value{kNil};
  ViewNumber view{0};
  RoundNumber step{1};  // 1 or 2
  ProcessId signer{kInvalidProcess};
  sim::Signature signature;

  /// Canonical payload signed by the acceptor.
  [[nodiscard]] static std::string payload(Value v, ViewNumber w, RoundNumber step) {
    return "update|" + std::to_string(step) + "|" + std::to_string(w) + "|" +
           std::to_string(v);
  }
  [[nodiscard]] std::string payload() const { return payload(value, view, step); }

  friend bool operator==(const SignedUpdate&, const SignedUpdate&) = default;
};

/// Keys Updateproof / UpdateQ maps: (step, view).
using StepView = std::pair<RoundNumber, ViewNumber>;

/// The content of a new_view_ack message (Figure 12, line 28): the
/// acceptor's last prepared and 1-/2-updated values with view numbers,
/// quorum ids and signature sets vouching for the updates.
struct NewViewAckData {
  ViewNumber view{0};
  Value prep{kNil};
  std::set<ViewNumber> prepview;
  std::array<Value, 3> update{kNil, kNil, kNil};          // index 1, 2 used
  std::array<std::set<ViewNumber>, 3> updateview;          // index 1, 2 used
  std::map<StepView, std::vector<SignedUpdate>> updateproof;
  std::map<StepView, std::set<QuorumId>> updateq;

  /// Canonical payload for the ack's own signature.
  [[nodiscard]] std::string payload() const;
};

/// Figure 12 line 4 ("valid acks"): every update the ack claims carries
/// an Updateproof set of correctly signed update<step> messages with the
/// claimed value and view, signed by a basic subset (not in B).
[[nodiscard]] bool updateproof_valid(const NewViewAckData& ack,
                                     const sim::SignatureAuthority& authority,
                                     const Adversary& adversary);

/// vProof: new_view_ack data per acceptor (from some quorum Q).
using VProof = std::map<ProcessId, NewViewAckData>;

/// A signed view_change<nextView> message; a quorum of them is viewProof.
struct SignedViewChange {
  ViewNumber next_view{0};
  ProcessId signer{kInvalidProcess};
  sim::Signature signature;

  [[nodiscard]] static std::string payload(ViewNumber w) {
    return "view_change|" + std::to_string(w);
  }
  [[nodiscard]] std::string payload() const { return payload(next_view); }
};

// --------------------------------------------------------------------------
// Wire messages.
// --------------------------------------------------------------------------

struct PrepareMsg;
struct UpdateMsg;
struct NewViewMsg;
struct NewViewAckMsg;
struct SignReqMsg;
struct SignAckMsg;
struct ViewChangeMsg;
struct DecisionMsg;
struct DecisionPullMsg;
struct SyncMsg;
using Messages =
    sim::MessageList<PrepareMsg, UpdateMsg, NewViewMsg, NewViewAckMsg,
                     SignReqMsg, SignAckMsg, ViewChangeMsg, DecisionMsg,
                     DecisionPullMsg, SyncMsg>;

struct PrepareMsg final : sim::TypedMessage<PrepareMsg, Messages, 128> {
  Value value{kNil};
  ViewNumber view{0};
  VProof vproof;           // empty (nil) in initView
  ProcessSet vproof_quorum;  // the quorum Q the vProof came from
  [[nodiscard]] std::string_view tag() const override { return "PREPARE"; }
};

struct UpdateMsg final : sim::TypedMessage<UpdateMsg, Messages, 64> {
  RoundNumber step{1};  // 1, 2 or 3
  Value value{kNil};
  ViewNumber view{0};
  QuorumId quorum{kInvalidQuorum};  // update2/update3 carry the quorum id
  [[nodiscard]] std::string_view tag() const override {
    switch (step) {
      case 1: return "UPDATE1";
      case 2: return "UPDATE2";
      case 3: return "UPDATE3";
      default: return "UPDATE?";
    }
  }
};

struct NewViewMsg final : sim::TypedMessage<NewViewMsg, Messages, 64> {
  ViewNumber view{0};
  std::vector<SignedViewChange> view_proof;
  [[nodiscard]] std::string_view tag() const override { return "NEW_VIEW"; }
};

struct NewViewAckMsg final : sim::TypedMessage<NewViewAckMsg, Messages, 384> {
  NewViewAckData data;
  ProcessId signer{kInvalidProcess};
  sim::Signature signature;
  [[nodiscard]] std::string_view tag() const override { return "NEW_VIEW_ACK"; }
};

struct SignReqMsg final : sim::TypedMessage<SignReqMsg, Messages, 64> {
  Value value{kNil};
  ViewNumber view{0};
  RoundNumber step{1};
  [[nodiscard]] std::string_view tag() const override { return "SIGN_REQ"; }
};

struct SignAckMsg final : sim::TypedMessage<SignAckMsg, Messages, 128> {
  SignedUpdate update;
  [[nodiscard]] std::string_view tag() const override { return "SIGN_ACK"; }
};

struct ViewChangeMsg final : sim::TypedMessage<ViewChangeMsg, Messages, 64> {
  SignedViewChange change;
  [[nodiscard]] std::string_view tag() const override { return "VIEW_CHANGE"; }
};

struct DecisionMsg final : sim::TypedMessage<DecisionMsg, Messages, 64> {
  Value value{kNil};
  [[nodiscard]] std::string_view tag() const override { return "DECISION"; }
};

struct DecisionPullMsg final : sim::TypedMessage<DecisionPullMsg, Messages, 64> {
  [[nodiscard]] std::string_view tag() const override { return "DECISION_PULL"; }
};

struct SyncMsg final : sim::TypedMessage<SyncMsg, Messages, 64> {
  [[nodiscard]] std::string_view tag() const override { return "SYNC"; }
};

}  // namespace rqs::consensus
