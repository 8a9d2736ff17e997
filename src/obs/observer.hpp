// Observer: the single attachment point the simulator and the protocol
// state machines talk to.
//
// A Simulation holds an Observer* that is null by default; every hook site
// pays exactly one predictable branch when no observer is attached (the
// "zero overhead when off" contract, pinned by bench_obs_overhead). An
// attached observer bumps plain per-event counters, and — only when it was
// constructed with a trace capacity — appends 32-byte events to its
// TraceRing and interns message tags for export. Nothing here feeds back
// into the protocols: observation can never change a golden digest.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rqs::obs {

class Observer {
 public:
  /// Metrics only (no trace ring).
  Observer() = default;
  /// Metrics plus a trace ring of (at least) `trace_capacity` events;
  /// 0 means metrics only. Above TraceRing::kMaxCapacity it throws
  /// std::length_error.
  explicit Observer(std::size_t trace_capacity) {
    if (trace_capacity > 0) ring_.emplace(trace_capacity);
  }

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] TraceRing* ring() noexcept {
    return ring_ ? &*ring_ : nullptr;
  }
  [[nodiscard]] const TraceRing* ring() const noexcept {
    return ring_ ? &*ring_ : nullptr;
  }
  [[nodiscard]] bool tracing() const noexcept { return ring_.has_value(); }

  // --- simulator hooks (hot path) ---

  // rqs-hot-path
  void on_send(std::int64_t now, std::int64_t deliver_at, ProcessId from,
               ProcessId to, std::uint32_t type, std::string_view tag) {
    ++sends_;
    if (ring_) {
      intern(type, tag);
      ring_->record(TraceEvent{now, to, static_cast<std::uint64_t>(deliver_at),
                               type, static_cast<std::uint16_t>(from),
                               static_cast<std::uint8_t>(TraceKind::kSend), 0});
    }
  }

  // rqs-hot-path
  void on_deliver(std::int64_t at, ProcessId from, ProcessId to,
                  std::uint32_t type, std::string_view tag) {
    ++delivers_;
    if (ring_) {
      intern(type, tag);
      ring_->record(TraceEvent{at, from, 0, type,
                               static_cast<std::uint16_t>(to),
                               static_cast<std::uint8_t>(TraceKind::kDeliver),
                               0});
    }
  }

  // rqs-hot-path
  void on_timer(std::int64_t at, ProcessId owner, std::uint64_t timer_id) {
    ++timers_;
    if (ring_) {
      ring_->record(TraceEvent{at, timer_id, 0, 0,
                               static_cast<std::uint16_t>(owner),
                               static_cast<std::uint8_t>(TraceKind::kTimer),
                               0});
    }
  }

  // --- protocol hooks (per operation / per phase, off the per-message
  // fast path) ---

  void phase(std::int64_t at, ProcessId actor, std::uint32_t point,
             std::uint64_t arg0 = 0, std::uint64_t arg1 = 0,
             std::uint8_t aux = 0) {
    if (ring_) {
      ring_->record(TraceEvent{at, arg0, arg1, point,
                               static_cast<std::uint16_t>(actor),
                               static_cast<std::uint8_t>(TraceKind::kPhase),
                               aux});
    }
  }

  void quorum_class(std::int64_t at, ProcessId actor, std::uint32_t point,
                    std::uint8_t ladder_class, std::uint64_t rounds) {
    if (ring_) {
      ring_->record(
          TraceEvent{at, rounds, 0, point, static_cast<std::uint16_t>(actor),
                     static_cast<std::uint8_t>(TraceKind::kQuorumClass),
                     ladder_class});
    }
  }

  void compaction(std::int64_t at, ProcessId server, std::uint32_t key,
                  std::uint64_t rows_dropped, std::uint64_t floor_seq) {
    if (ring_) {
      ring_->record(TraceEvent{at, rows_dropped, floor_seq, key,
                               static_cast<std::uint16_t>(server),
                               static_cast<std::uint8_t>(TraceKind::kCompaction),
                               0});
    }
  }

  void count(std::string_view name, std::uint64_t by = 1) {
    metrics_.bump(name, by);
  }
  void record_latency(std::string_view name, std::int64_t value) {
    metrics_.histogram(name).record(value);
  }

  // --- results ---

  [[nodiscard]] std::uint64_t sends() const noexcept { return sends_; }
  [[nodiscard]] std::uint64_t delivers() const noexcept { return delivers_; }
  [[nodiscard]] std::uint64_t timers() const noexcept { return timers_; }

  /// Digest of the retained trace-event sequence (0 when not tracing).
  [[nodiscard]] std::uint64_t events_digest() const noexcept {
    return ring_ ? ring_->digest() : 0;
  }

  /// Metrics snapshot with the sim-event totals folded in as counters.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Tag of an interned message type ("" if never seen while tracing).
  [[nodiscard]] std::string_view message_tag(std::uint32_t type) const noexcept {
    const std::string_view* tag = tags_.find(type);
    return tag != nullptr ? *tag : std::string_view{};
  }

 private:
  // rqs-hot-path
  void intern(std::uint32_t type, std::string_view tag) {
    tags_.try_emplace(type, tag);
  }

  MetricsRegistry metrics_;
  std::optional<TraceRing> ring_;
  // Message tags are static-storage string_views (Message::tag), interned
  // by type hash for export.
  FlatMap<std::uint32_t, std::string_view> tags_;
  std::uint64_t sends_{0};
  std::uint64_t delivers_{0};
  std::uint64_t timers_{0};
};

}  // namespace rqs::obs
