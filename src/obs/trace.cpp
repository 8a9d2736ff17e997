#include "obs/trace.hpp"

#include <stdexcept>
#include <string>

namespace rqs::obs {

const char* phase_point_name(std::uint32_t p) noexcept {
  switch (p) {
    case kPhaseReadCollect: return "read.collect";
    case kPhaseReadWriteback1: return "read.writeback1";
    case kPhaseReadWriteback1Plain: return "read.writeback1_plain";
    case kPhaseReadWriteback2: return "read.writeback2";
    case kPhaseReadDone: return "read.done";
    case kPhaseWriteRound: return "write.round";
    case kPhaseWriteDone: return "write.done";
    case kPhaseViewChange: return "view_change";
    case kPhaseProposeFast: return "propose.fast";
    case kPhaseProposeConsult: return "propose.consult";
    case kPhaseChooseAbort: return "choose.abort";
    case kPhaseDecide: return "decide";
    case kPhaseLearn: return "learn";
    default: return "phase";
  }
}

TraceRing::TraceRing(std::size_t capacity) {
  if (capacity > kMaxCapacity) {
    throw std::length_error("TraceRing: capacity " + std::to_string(capacity) +
                            " exceeds the ceiling of " +
                            std::to_string(kMaxCapacity) + " events");
  }
  std::size_t cap = 2;
  while (cap < capacity) cap <<= 1;
  ev_.resize(cap);
  mask_ = cap - 1;
}

std::uint64_t TraceRing::digest() const noexcept {
  Fnv64 h;
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = (*this)[i];
    h.mix(static_cast<std::uint64_t>(e.at));
    h.mix(e.arg0);
    h.mix(e.arg1);
    h.mix((std::uint64_t{e.name} << 32) | (std::uint64_t{e.actor} << 16) |
          (std::uint64_t{e.kind} << 8) | e.aux);
  }
  h.mix(recorded());
  h.mix(dropped());
  return h.digest();
}

}  // namespace rqs::obs
