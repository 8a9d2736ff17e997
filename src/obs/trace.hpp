// Fixed-capacity ring of 32-byte POD trace events.
//
// The ring is sized once at construction (capacity rounded up to a power
// of two) and never grows: record() is a masked store plus an increment,
// overwriting the oldest event when full (drop-oldest). That keeps the
// recording path allocation-free and branch-predictable, so an attached
// observer never perturbs the PR-5 zero-alloc invariants of the simulator
// hot path — and, because events are *observations* only, golden protocol
// digests are byte-identical whether a ring is attached or not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/fnv.hpp"

namespace rqs::obs {

/// What a trace event records. Values are stable: dumps written by one
/// build must load in another.
enum class TraceKind : std::uint8_t {
  kSend = 1,         ///< a message was scheduled for delivery
  kDeliver = 2,      ///< a message reached its receiver's on_message
  kTimer = 3,        ///< a timer fired (cancelled timers are not recorded)
  kPhase = 4,        ///< a protocol state machine changed phase
  kQuorumClass = 5,  ///< an operation completed at a ladder position
  kCompaction = 6,   ///< a storage server dropped history rows
};

/// Phase / operation identifiers carried in TraceEvent::name for
/// non-message events (message events carry the MessageType hash there).
enum PhasePoint : std::uint32_t {
  kPhaseReadCollect = 1,
  kPhaseReadWriteback1 = 2,
  kPhaseReadWriteback1Plain = 3,
  kPhaseReadWriteback2 = 4,
  kPhaseReadDone = 5,
  kPhaseWriteRound = 6,
  kPhaseWriteDone = 7,
  kPhaseViewChange = 8,
  kPhaseProposeFast = 9,
  kPhaseProposeConsult = 10,
  kPhaseChooseAbort = 11,
  kPhaseDecide = 12,
  kPhaseLearn = 13,
};

/// Human-readable name of a PhasePoint (for trace export).
[[nodiscard]] const char* phase_point_name(std::uint32_t p) noexcept;

/// One trace event: exactly 32 bytes of POD, mirroring the simulator's
/// Event discipline — ring stores are plain sized copies.
/// Field use per kind:
///   kSend         actor=sender, name=MessageType, arg0=receiver,
///                 arg1=scheduled delivery time
///   kDeliver      actor=receiver, name=MessageType, arg0=sender
///   kTimer        actor=owner, arg0=timer id
///   kPhase        actor, name=PhasePoint, arg0/arg1 free, aux=round
///   kQuorumClass  actor, name=PhasePoint, aux=ladder class (1/2/3),
///                 arg0=rounds taken, arg1 free
///   kCompaction   actor=server, name=key, arg0=rows dropped,
///                 arg1=new floor sequence
struct TraceEvent {
  std::int64_t at;      ///< sim time the event was recorded
  std::uint64_t arg0;
  std::uint64_t arg1;
  std::uint32_t name;   ///< MessageType hash or PhasePoint
  std::uint16_t actor;  ///< process id
  std::uint8_t kind;    ///< TraceKind
  std::uint8_t aux;     ///< kind-specific small payload
};
static_assert(sizeof(TraceEvent) == 32,
              "TraceEvent must stay exactly 32 bytes: two per cache line, "
              "ring stores are plain sized copies");
static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(std::is_standard_layout_v<TraceEvent>);

class TraceRing {
 public:
  /// Largest capacity a ring accepts: 2^24 events, 512 MiB of storage.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 24;

  /// Capacity is rounded up to a power of two (minimum 2) so the record
  /// path masks instead of dividing. All storage is allocated here, once.
  /// Throws std::length_error, before allocating, when `capacity` exceeds
  /// kMaxCapacity.
  explicit TraceRing(std::size_t capacity);

  // rqs-hot-path
  void record(const TraceEvent& e) noexcept {
    ev_[static_cast<std::size_t>(head_) & mask_] = e;
    ++head_;
  }

  /// Events currently retained (the newest min(recorded, capacity)).
  [[nodiscard]] std::size_t size() const noexcept {
    return head_ < capacity() ? static_cast<std::size_t>(head_)
                              : capacity();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return ev_.size(); }
  /// Total events ever recorded (retained + dropped).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return head_; }
  /// Events overwritten because the ring was full (drop-oldest).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return head_ < capacity() ? 0 : head_ - capacity();
  }

  /// i-th retained event, oldest first.
  [[nodiscard]] const TraceEvent& operator[](std::size_t i) const noexcept {
    const std::uint64_t first = head_ - size();
    return ev_[static_cast<std::size_t>(first + i) & mask_];
  }

  void clear() noexcept { head_ = 0; }

  /// Order-sensitive FNV-1a digest over every retained event plus the
  /// recorded/dropped totals. Deterministic for a deterministic run.
  [[nodiscard]] std::uint64_t digest() const noexcept;

 private:
  std::vector<TraceEvent> ev_;
  std::size_t mask_;
  std::uint64_t head_{0};
};

}  // namespace rqs::obs
