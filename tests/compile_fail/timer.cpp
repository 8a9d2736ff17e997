// Must-not-compile cases for the timer contract of sim/process.hpp: an
// expiry is armed only through a sim::Timer, and a Timer is built with the
// handler its expiry runs. CTest compiles this file once per RQS_CASE_<X>
// with -fsyntax-only; each entry passes only on its own case's diagnostic
// (tests/CMakeLists.txt). With no case defined the file must compile.
#include "sim/process.hpp"

namespace rqs::compile_fail {

using sim::MessageList;
using sim::ProcessOf;
using sim::Timer;

class Sleeper final : public ProcessOf<Sleeper, MessageList<>> {
 public:
  Sleeper(sim::Simulation& sim, ProcessId id) : ProcessOf(sim, id) {}

#if defined(RQS_CASE_TIMER_ARM_WITHOUT_TIMER)
  // An expiry named only by its owner's id: nothing would run it.
  void doze() { sim().arm_timer(id(), 10); }
#elif defined(RQS_CASE_TIMER_NO_HANDLER)
  // A timer whose expiry runs nothing.
  void doze() { alarm_.arm(10); }

 private:
  Timer alarm_{*this};
#else
  // The control: the handler is bound where the timer is built.
  void doze() { alarm_.arm(10); }

 private:
  void wake() {}
  Timer alarm_{*this, [this] { wake(); }};
#endif
};

void build() {
  sim::Simulation sim;
  Sleeper sleeper(sim, 0);
  sleeper.doze();
}

}  // namespace rqs::compile_fail
