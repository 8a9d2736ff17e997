// Must-not-compile cases for the typed-message contract of sim/message.hpp.
// CTest compiles this file once per RQS_CASE_<X> with -fsyntax-only; each
// entry passes only on its own case's diagnostic (tests/CMakeLists.txt).
// With no case defined the file must compile.
#include <string_view>

#include "common/process_set.hpp"
#include "sim/message.hpp"

namespace rqs::compile_fail {

using sim::MessageList;
using sim::TypedMessage;

#define RQS_TAG \
  [[nodiscard]] std::string_view tag() const override { return "T"; }

struct GoodMsg;
template <class Set>
struct WideMsg;
using List = MessageList<GoodMsg, WideMsg<ProcessSet>>;
struct GoodMsg final : TypedMessage<GoodMsg, List, 64> { RQS_TAG };
template <class Set>
struct WideMsg final : TypedMessage<WideMsg<Set>, List, 64> { RQS_TAG };

// GCC spells these two names so that they hash to one id. If this fails,
// its __PRETTY_FUNCTION__ changed: find a new pair for the collision case.
struct Collide462789;
struct Collide679192;
#if defined(__GNUC__) && !defined(__clang__)
static_assert(sim::kMessageTypeOf<Collide462789> == sim::kMessageTypeOf<Collide679192>);
#endif

#if defined(RQS_CASE_NOT_LISTED)
struct Rogue final : TypedMessage<Rogue, List, 64> { RQS_TAG };
#elif defined(RQS_CASE_NO_BUDGET)
struct Rogue final : TypedMessage<Rogue, MessageList<Rogue>> { RQS_TAG };
#elif defined(RQS_CASE_NOT_FINAL)
struct Rogue : TypedMessage<Rogue, MessageList<Rogue>, 64> { RQS_TAG };
#elif defined(RQS_CASE_MASKED)
struct Rogue final : TypedMessage<GoodMsg, List, 64> { RQS_TAG };
#elif defined(RQS_CASE_WIDE_NOT_LISTED)
template <class Set>
struct Wide final : TypedMessage<Wide<Set>, List, 64> { RQS_TAG };
using Rogue = Wide<ProcessSet>;
#elif defined(RQS_CASE_WIDE_NO_BUDGET)
template <class Set>
struct Wide final : TypedMessage<Wide<Set>, MessageList<Wide<Set>>> { RQS_TAG };
using Rogue = Wide<ProcessSet>;
#elif defined(RQS_CASE_WIDE_NOT_FINAL)
template <class Set>
struct Wide : TypedMessage<Wide<Set>, MessageList<Wide<Set>>, 64> { RQS_TAG };
using Rogue = Wide<ProcessSet>;
#elif defined(RQS_CASE_WIDE_MASKED)
template <class Set>
struct Wide final : TypedMessage<WideMsg<Set>, List, 64> { RQS_TAG };
using Rogue = Wide<ProcessSet>;
#elif defined(RQS_CASE_OVER_BUDGET)
struct Rogue final : TypedMessage<Rogue, MessageList<Rogue>, 64> { char pad[64]; RQS_TAG };
#elif defined(RQS_CASE_SLACK_BUDGET)
struct Rogue final : TypedMessage<Rogue, MessageList<Rogue>, 128> { RQS_TAG };
#elif defined(RQS_CASE_COLLISION)
using Colliding = MessageList<Collide462789, Collide679192>;
struct Collide462789 final : TypedMessage<Collide462789, Colliding, 64> { RQS_TAG };
using Rogue = Collide462789;
#else
using Rogue = GoodMsg;  // the control: nothing planted
#endif

// The constructor holds the checks that need a complete type, so build.
inline void build() {
  [[maybe_unused]] const Rogue rogue{};
  [[maybe_unused]] const WideMsg<ProcessSet> wide{};
}

}  // namespace rqs::compile_fail
