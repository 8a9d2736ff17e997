#include "consensus/messages.hpp"

namespace rqs::consensus {

std::string NewViewAckData::payload() const {
  std::string out = "nvack|" + std::to_string(view) + "|p=" +
                    std::to_string(prep) + "|pv=";
  for (const ViewNumber w : prepview) out += std::to_string(w) + ",";
  for (RoundNumber step = 1; step <= 2; ++step) {
    out += "|u" + std::to_string(step) + "=" + std::to_string(update[step]) + ":";
    for (const ViewNumber w : updateview[step]) out += std::to_string(w) + ",";
  }
  for (const auto& [key, quorums] : updateq) {
    out += "|q" + std::to_string(key.first) + "." + std::to_string(key.second) + "=";
    for (const QuorumId q : quorums) out += std::to_string(q) + ",";
  }
  for (const auto& [key, proofs] : updateproof) {
    out += "|s" + std::to_string(key.first) + "." + std::to_string(key.second) + "=";
    for (const SignedUpdate& su : proofs) {
      out += std::to_string(su.signer) + ":" + std::to_string(su.signature.record) + ",";
    }
  }
  return out;
}

bool updateproof_valid(const NewViewAckData& ack,
                       const sim::SignatureAuthority& authority,
                       const Adversary& adversary) {
  for (RoundNumber step = 1; step <= 2; ++step) {
    for (const ViewNumber w : ack.updateview[step]) {
      const auto it = ack.updateproof.find(StepView{step, w});
      if (it == ack.updateproof.end()) return false;
      ProcessSet signers;
      for (const SignedUpdate& su : it->second) {
        if (su.value != ack.update[step] || su.view != w || su.step != step) {
          return false;
        }
        if (!authority.verify(su.signature, su.signer, su.payload())) return false;
        signers.insert(su.signer);
      }
      if (!adversary.is_basic(signers)) return false;
    }
  }
  return true;
}

}  // namespace rqs::consensus
