// Planted blind dispatch for rqs_lint's `handler-totality` rule: this file
// includes no messages header, so its on_message has no message universe
// to be checked against. The rule must fail loudly here, not pass having
// checked nothing (as it would if its declaration regex rotted).
// This file is a lint fixture only — it is never compiled or linked.
#include "sim/process.hpp"

namespace rqs::lint_fixture {

class BlindServer final : public sim::Process {
 public:
  using sim::Process::Process;
  void on_message(ProcessId, const sim::Message&) override {}  // EXPECT-LINT: handler-totality
  void on_timer(sim::TimerId) override {}
};

}  // namespace rqs::lint_fixture
