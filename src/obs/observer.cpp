#include "obs/observer.hpp"

namespace rqs::obs {

MetricsSnapshot Observer::snapshot() const {
  MetricsSnapshot snap = metrics_.snapshot();
  snap.counters["sim.delivers"] += delivers_;
  snap.counters["sim.sends"] += sends_;
  snap.counters["sim.timers"] += timers_;
  return snap;
}

}  // namespace rqs::obs
