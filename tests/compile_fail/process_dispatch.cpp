// Must-not-compile cases for the dispatch contract of sim/process.hpp.
// CTest compiles this file once per RQS_CASE_<X> with -fsyntax-only; each
// entry passes only on its own case's diagnostic (tests/CMakeLists.txt).
// With no case defined the file must compile.
#include <string_view>

#include "sim/process.hpp"

namespace rqs::compile_fail {

using sim::Message;
using sim::MessageList;
using sim::ProcessOf;
using sim::TypedMessage;

#define RQS_TAG \
  [[nodiscard]] std::string_view tag() const override { return "T"; }

struct Ping;
struct Pong;
using List = MessageList<Ping, Pong>;
struct Ping final : TypedMessage<Ping, List, 64> { RQS_TAG };
struct Pong final : TypedMessage<Pong, List, 64> { RQS_TAG };
struct Stray final : TypedMessage<Stray, MessageList<Stray>, 64> { RQS_TAG };

#define RQS_CTOR(P) \
  P(sim::Simulation& sim, ProcessId id) : ProcessOf(sim, id) {}

#if defined(RQS_CASE_DISPATCH_UNHANDLED)
// Pong is listed, but neither handled nor dropped.
class Rogue final : public ProcessOf<Rogue, List> {
 public:
  RQS_CTOR(Rogue)
  void on(ProcessId, const Ping&) {}
};
#elif defined(RQS_CASE_DISPATCH_PRIVATE)
// The dispatch cannot call a private handler.
class Rogue final : public ProcessOf<Rogue, List, MessageList<Pong>> {
 public:
  RQS_CTOR(Rogue)

 private:
  void on(ProcessId, const Ping&) {}
};
#elif defined(RQS_CASE_DISPATCH_HANDLED_AND_DROPPED)
// Pong is dropped, yet a handler for it exists.
class Rogue final : public ProcessOf<Rogue, List, MessageList<Pong>> {
 public:
  RQS_CTOR(Rogue)
  void on(ProcessId, const Ping&) {}
  void on(ProcessId, const Pong&) {}
};
#elif defined(RQS_CASE_DISPATCH_DROPS_UNLISTED)
// Stray is not in List, so dropping it says nothing true.
class Rogue final : public ProcessOf<Rogue, List, MessageList<Pong, Stray>> {
 public:
  RQS_CTOR(Rogue)
  void on(ProcessId, const Ping&) {}
};
#elif defined(RQS_CASE_DISPATCH_CATCH_ALL)
// A template handler accepts every type, so none can be missing.
class Rogue final : public ProcessOf<Rogue, List> {
 public:
  RQS_CTOR(Rogue)
  void on(ProcessId, const auto&) {}
};
#elif defined(RQS_CASE_DISPATCH_BARE_PROCESS)
// A process that names no MessageList.
class Rogue final : public sim::Process {
 public:
  Rogue(sim::Simulation& sim, ProcessId id) : Process(sim, id) {}
  void on_message(ProcessId, const Message&) override {}
};
#else
// The control: Ping handled, Pong dropped.
class Rogue final : public ProcessOf<Rogue, List, MessageList<Pong>> {
 public:
  RQS_CTOR(Rogue)
  void on(ProcessId, const Ping&) {}
};
#endif

// The checks sit in on_message, which is instantiated only where a
// process is built, so build one.
template <class P>
void build() {
  sim::Simulation sim;
  [[maybe_unused]] P process(sim, 0);
}
template void build<Rogue>();

}  // namespace rqs::compile_fail
