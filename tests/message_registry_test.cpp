// Cross-protocol checks over every concrete message type. Each protocol's
// MessageList proves its own ids distinct; this file joins the four lists
// and proves them distinct across protocols too, since a collision would
// let msg_cast<> read one type as another. A message type exists only by
// being listed (its TypedMessage base checks that), so the union is
// complete without a hand-kept list.
#include <algorithm>
#include <string_view>

#include <gtest/gtest.h>

#include "consensus/crash_paxos.hpp"
#include "consensus/messages.hpp"
#include "sim/message.hpp"
#include "storage/abd.hpp"
#include "storage/messages.hpp"

namespace {

using rqs::sim::MessageList;

template <typename... A, typename... B>
MessageList<A..., B...> operator+(MessageList<A...>, MessageList<B...>);

using AllMessages =
    decltype(rqs::consensus::Messages{} + rqs::consensus::PaxosMessages{} +
             rqs::storage::Messages{} + rqs::storage::AbdMessages{});

static_assert(AllMessages::distinct(),
              "two message types of different protocols hash to the same "
              "MessageType id: rename one of the colliding types");

TEST(MessageRegistry, IdsAreDistinctAtRuntimeToo) {
  // The static_assert above is the real check; this reports the count.
  auto ids = AllMessages::kIds;
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  EXPECT_EQ(ids.size(), 22u);
}

// Message::tag() must return views of literals (Network::sent_by_tag keys
// its counters on the view), so two instances of one type yield
// pointer-identical views. Building each type also instantiates its
// constructor, and with it the ConcreteMessage and pool-budget checks.
template <typename M>
void expect_static_tag() {
  const M a{};
  const M b{};
  EXPECT_EQ(a.tag().data(), b.tag().data()) << a.tag();
}

template <typename... Ms>
void expect_static_tags(MessageList<Ms...>) {
  (expect_static_tag<Ms>(), ...);
}

TEST(MessageRegistry, TagViewsHaveStaticStorage) {
  expect_static_tags(AllMessages{});
}

}  // namespace
