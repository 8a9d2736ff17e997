// Message layer of the discrete-event simulator: static type ids, an
// intrusive non-atomic refcount, and a per-simulation slab pool.
//
// Protocols define plain structs deriving from TypedMessage<Self, ...>; the
// network carries them as MessagePtr (a delivered message may be handed to
// many receivers, so payloads are immutable after send). Receivers dispatch
// on Message::type() — a compile-time constant per concrete type — through
// sim::ProcessOf, and msg_cast<M>() downcasts elsewhere: each is a single
// integer compare instead of a dynamic_cast (no RTTI on the delivery hot
// path).
//
// Allocation: messages built through MessagePool::make() live in recycled
// 64-byte-granular blocks owned by the pool; steady-state send/deliver
// cycles allocate nothing. The refcount is deliberately non-atomic — every
// Simulation (and the swarm workers wrapping them) is share-nothing, so an
// atomic would buy no safety and cost a lock prefix per copy.
#pragma once

#include <array>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fnv.hpp"

namespace rqs::sim {

class MessagePool;
class MessagePtr;

/// Static identifier of a concrete message type. Ids are compile-time
/// hashes of the type name, so receivers can compare against constants;
/// each protocol's MessageList proves its ids distinct at compile time.
using MessageType = std::uint32_t;

namespace detail {

/// Compile-time name of M, via the compiler's pretty function string.
template <typename M>
[[nodiscard]] constexpr std::string_view type_name() noexcept {
#if defined(__clang__) || defined(__GNUC__)
  return __PRETTY_FUNCTION__;
#else
#error "unsupported compiler: need __PRETTY_FUNCTION__ for message type ids"
#endif
}

[[nodiscard]] constexpr MessageType fnv1a32(std::string_view s) noexcept {
  std::uint32_t h = 2166136261u;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

}  // namespace detail

/// The static type id of concrete message type M. Only the name is hashed,
/// so a forward declaration of M suffices.
template <typename M>
inline constexpr MessageType kMessageTypeOf =
    detail::fnv1a32(detail::type_name<M>());

/// The message types one protocol exchanges, declared ahead of them. Each
/// one's TypedMessage base checks that the list holds it and that the
/// listed ids are distinct, so neither msg_cast<> nor a process's dispatch
/// ever reads one as another.
template <typename... Ms>
struct MessageList {
  static constexpr std::array<MessageType, sizeof...(Ms)> kIds{
      kMessageTypeOf<Ms>...};

  template <typename M>
  static constexpr bool kHolds = (std::is_same_v<M, Ms> || ...);

  /// Every listed type is in the MessageList `Other`.
  template <typename Other>
  static constexpr bool kWithin = (Other::template kHolds<Ms> && ...);

  [[nodiscard]] static constexpr bool distinct() noexcept {
    for (std::size_t i = 0; i < kIds.size(); ++i) {
      for (std::size_t j = i + 1; j < kIds.size(); ++j) {
        if (kIds[i] == kIds[j]) return false;
      }
    }
    return true;
  }
};

/// Message base. Carries the static type id, the intrusive refcount and
/// the owning pool (null for plain heap messages). Derive concrete types
/// from TypedMessage<Self, List, PoolBytes>, never from Message directly.
class Message {
 public:
  virtual ~Message() = default;

  /// Short human-readable tag for traces ("WR", "RD_ACK", "PREPARE", ...).
  /// Must view a string with static storage duration (a literal): the
  /// network keys its per-tag counters on the view itself, so the send hot
  /// path allocates nothing.
  [[nodiscard]] virtual std::string_view tag() const = 0;

  /// Static type id of the concrete type (== M::kType for exactly one M).
  [[nodiscard]] MessageType type() const noexcept { return type_; }

  /// Folds the message's *content* — type id plus every protocol-visible
  /// payload field, never the refcount or pool bookkeeping — into `h`. The
  /// model checker names pending deliveries by this digest, so two
  /// messages must collide only when delivering either leads to identical
  /// receiver behavior. Types that can sit in an mc-explored queue must
  /// override this; the default covers payload-free types.
  virtual void digest_into(Fnv64& h) const { h.mix(type_); }

 protected:
  explicit Message(MessageType t) noexcept : type_(t) {}
  // Copies are fresh objects: they never inherit the source's refcount or
  // pool block.
  Message(const Message& o) noexcept : type_(o.type_) {}
  Message& operator=(const Message&) noexcept { return *this; }

 private:
  friend class MessagePool;
  friend class MessagePtr;

  MessageType type_;
  mutable std::uint32_t refs_{1};
  std::uint32_t bucket_{0};          // pool size class
  MessagePool* pool_{nullptr};       // the pool that built this message
};

/// A well-formed concrete message type: its TypedMessage base names the
/// type itself (so its static id identifies exactly one type), it is final
/// (so the id can never alias a further-derived type), fits the pool's
/// alignment contract, and cannot throw from its destructor (recycle()
/// destroys in noexcept context). msg_cast<>, MessagePool::make<> and
/// Process::make_msg<> are all constrained on this concept, so a malformed
/// message type fails the build at the call site.
template <typename M>
concept ConcreteMessage =
    std::derived_from<M, Message> &&
    std::same_as<typename M::MessageSelf, M> && std::is_final_v<M> &&
    alignof(M) <= alignof(std::max_align_t) &&
    std::is_nothrow_destructible_v<M>;

/// CRTP base all concrete message types derive from: stamps the static
/// type id into the header and exposes it as M::kType for the dispatch.
/// `List` is the protocol's MessageList. `PoolBytes` is the 64-byte pool
/// size-class ceiling Self occupies, so a field added casually fails the
/// build the moment it would push the type into a bigger pool bucket
/// (changing steady-state slab usage and, for hot-path types, the
/// zero-allocation profile); growing a budget has to be deliberate. Only
/// Self may construct this base, so a CRTP argument naming another type
/// fails at the first construction, as do the constructor's checks.
template <typename Self, typename List, std::size_t PoolBytes>
struct TypedMessage : Message {
  static_assert(List::template kHolds<Self>,
                "a message type must be listed in the MessageList it names");
  static_assert(List::distinct(),
                "two listed types hash to the same MessageType id: rename one");

  using MessageSelf = Self;
  static constexpr MessageType kType = kMessageTypeOf<Self>;

 private:
  friend Self;

  TypedMessage() noexcept : Message(kType) {
    static_assert(ConcreteMessage<Self>, "message type must be a ConcreteMessage");
    static_assert(sizeof(Self) <= PoolBytes,
                  "message outgrew its PoolBytes pool size class");
    static_assert(PoolBytes % 64 == 0 && sizeof(Self) > PoolBytes - 64,
                  "PoolBytes must be the exact 64-byte size-class ceiling");
  }
};

/// Typed view of a message; nullptr when the concrete type differs. One
/// integer compare — no RTTI.
template <ConcreteMessage M>
[[nodiscard]] const M* msg_cast(const Message& m) noexcept {
  return m.type() == M::kType ? static_cast<const M*>(&m) : nullptr;
}

template <typename M>
class PooledMessage;

/// Slab allocator for messages, one per Simulation. Blocks are bucketed by
/// size in 64-byte classes and recycled on release, so a run's steady state
/// reuses the same few blocks per message type instead of hitting the
/// global allocator on every send.
class MessagePool {
 public:
  MessagePool() = default;
  MessagePool(const MessagePool&) = delete;
  MessagePool& operator=(const MessagePool&) = delete;
  ~MessagePool() = default;  // chunks_ frees the backing slabs

  /// Builds an M in a pooled block. The returned handle is mutable until
  /// converted to a MessagePtr (i.e. sent); an unsent handle releases the
  /// block on destruction.
  template <ConcreteMessage M, typename... Args>
  [[nodiscard]] PooledMessage<M> make(Args&&... args);

  /// Observability for tests: blocks currently parked on free lists.
  [[nodiscard]] std::size_t free_blocks() const noexcept {
    std::size_t n = 0;
    for (const auto& f : free_) n += f.size();
    return n;
  }
  /// Total bytes of slab memory ever reserved.
  [[nodiscard]] std::size_t reserved_bytes() const noexcept {
    return reserved_bytes_;
  }

 private:
  friend class MessagePtr;

  static constexpr std::size_t kGranularity = 64;   // size-class step, bytes
  static constexpr std::size_t kChunkBytes = 16 * 1024;

  [[nodiscard]] static constexpr std::uint32_t bucket_of(std::size_t bytes) noexcept {
    return static_cast<std::uint32_t>((bytes + kGranularity - 1) / kGranularity);
  }

  // rqs-hot-path
  [[nodiscard]] void* allocate(std::uint32_t bucket) {
    if (free_.size() <= bucket) free_.resize(bucket + 1);  // rqs-lint: allow(hot-path-alloc) cold — first sighting of a size class only
    auto& list = free_[bucket];
    if (list.empty()) grow(bucket);
    void* block = list.back();
    list.pop_back();
    return block;
  }

  void grow(std::uint32_t bucket) {
    const std::size_t block = bucket * kGranularity;
    const std::size_t count = std::max<std::size_t>(1, kChunkBytes / block);
    // operator new[] returns fundamentally aligned storage and the block
    // size is a multiple of 64, so every carved block stays aligned for
    // any message payload (max_align_t).
    chunks_.push_back(std::make_unique<std::byte[]>(count * block));
    std::byte* base = chunks_.back().get();
    auto& list = free_[bucket];
    list.reserve(list.size() + count);
    for (std::size_t i = 0; i < count; ++i) list.push_back(base + i * block);
    reserved_bytes_ += count * block;
  }

  // rqs-hot-path
  void recycle(const Message* m) noexcept {
    const std::uint32_t bucket = m->bucket_;
    const_cast<Message*>(m)->~Message();
    // rqs-lint: allow(hot-path-alloc) no growth: pushes into capacity vacated by allocate()'s pop of the same list
    free_[bucket].push_back(
        const_cast<void*>(static_cast<const void*>(m)));
  }

  std::vector<std::vector<void*>> free_;  // free blocks per size class
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::size_t reserved_bytes_{0};
};

/// Shared handle to an immutable, sent message: an intrusive, non-atomic
/// refcount in the message header. Copy = one increment; the last release
/// returns the block to its pool.
class MessagePtr {
 public:
  constexpr MessagePtr() noexcept = default;
  constexpr MessagePtr(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  MessagePtr(const MessagePtr& o) noexcept : m_(o.m_) {
    if (m_ != nullptr) ++m_->refs_;
  }
  MessagePtr(MessagePtr&& o) noexcept : m_(o.m_) { o.m_ = nullptr; }
  MessagePtr& operator=(const MessagePtr& o) noexcept {
    if (this != &o) {
      reset();
      m_ = o.m_;
      if (m_ != nullptr) ++m_->refs_;
    }
    return *this;
  }
  MessagePtr& operator=(MessagePtr&& o) noexcept {
    if (this != &o) {
      reset();
      m_ = o.m_;
      o.m_ = nullptr;
    }
    return *this;
  }
  ~MessagePtr() { reset(); }

  /// Wraps a raw message, taking over one existing reference.
  [[nodiscard]] static MessagePtr adopt(const Message* m) noexcept {
    MessagePtr p;
    p.m_ = m;
    return p;
  }

  /// Releases ownership of the single reference without decrementing;
  /// the caller must later re-adopt (the event queue parks messages raw).
  [[nodiscard]] const Message* detach() noexcept {
    const Message* m = m_;
    m_ = nullptr;
    return m;
  }

  void reset() noexcept {
    if (m_ != nullptr) {
      release(m_);
      m_ = nullptr;
    }
  }

  [[nodiscard]] const Message* get() const noexcept { return m_; }
  [[nodiscard]] const Message& operator*() const noexcept { return *m_; }
  [[nodiscard]] const Message* operator->() const noexcept { return m_; }
  [[nodiscard]] explicit operator bool() const noexcept { return m_ != nullptr; }

  /// Takes one more reference on a raw (detached) message.
  static void retain(const Message* m) noexcept { ++m->refs_; }

  /// Drops one reference on a raw (detached) message.
  static void release(const Message* m) noexcept {
    assert(m->refs_ > 0);
    if (--m->refs_ == 0) m->pool_->recycle(m);
  }

 private:
  const Message* m_{nullptr};
};

/// Unique handle to a freshly built message: mutable while fields are
/// filled in, converts (implicitly) to a shared immutable MessagePtr when
/// passed to send(). An unsent handle releases the message on destruction.
template <typename M>
class PooledMessage {
 public:
  explicit PooledMessage(M* m) noexcept : ptr_(MessagePtr::adopt(m)), m_(m) {}

  PooledMessage(const PooledMessage&) = delete;
  PooledMessage& operator=(const PooledMessage&) = delete;
  PooledMessage(PooledMessage&& o) noexcept = default;
  PooledMessage& operator=(PooledMessage&& o) noexcept = default;

  [[nodiscard]] M* operator->() const noexcept { return m_; }
  [[nodiscard]] M& operator*() const noexcept { return *m_; }

  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design —
  // `send(to, std::move(msg))` freezes the draft into a shared message.
  [[nodiscard]] operator MessagePtr() && noexcept { return std::move(ptr_); }
  /// Copy-conversion: the draft stays usable (e.g. sent to several
  /// distinct destinations); mutating after the first send mutates what
  /// the earlier recipients will observe, exactly as with shared_ptr.
  [[nodiscard]] operator MessagePtr() const& noexcept { return ptr_; }  // NOLINT

 private:
  MessagePtr ptr_;
  M* m_;
};

template <ConcreteMessage M, typename... Args>
PooledMessage<M> MessagePool::make(Args&&... args) {
  constexpr std::uint32_t bucket = bucket_of(sizeof(M));
  void* block = allocate(bucket);
  M* m = new (block) M(std::forward<Args>(args)...);
  m->bucket_ = bucket;
  m->pool_ = this;
  return PooledMessage<M>(m);
}

}  // namespace rqs::sim
