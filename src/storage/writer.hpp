// RQS atomic storage: writer automaton (Figure 5).
//
// A write proceeds in at most three rounds. In round 1 the writer sends
// wr<ts, v, {}, 1> to all servers and waits for acks from some quorum AND
// the expiration of a 2*Delta timer; if a class 1 quorum acked, the write
// completes in one round. Otherwise the class 2 quorums that acked round 1
// are remembered in QC'2 and shipped inside the round 2 message; if some
// quorum of QC'2 acks round 2 the write completes in two rounds; otherwise
// a third round against any quorum completes it.
//
// A writer is a per-key session: it writes one ObjectId of the keyed
// register space. Timestamps are (seq, writer-rank) pairs ordered
// lexicographically, so two writers that (illegally, per the paper's
// single-writer assumption) share a key still never collide on a
// timestamp; give each a distinct rank. Every wr message piggybacks the
// pair of this writer's last *complete* write so servers can compact
// their history below it.
#pragma once

#include <cstdint>
#include <functional>

#include "common/retry.hpp"
#include "core/rqs.hpp"
#include "sim/process.hpp"
#include "sim/retransmitter.hpp"
#include "storage/messages.hpp"

namespace rqs::storage {

/// The writer's only inbound traffic is write acks: requests go to
/// servers, read acks to readers.
class RqsWriter final
    : public sim::ProcessOf<RqsWriter, Messages,
                            sim::MessageList<WrMsg, RdMsg, RdAck>> {
 public:
  using DoneFn = std::function<void()>;

  /// `servers` are the processes forming the quorum system; RQS element i
  /// must be the process with id i. `key` selects the register; `rank` is
  /// the writer component of every timestamp this writer emits.
  /// `retry` (disabled by default) drives a sim::Retransmitter: unacked
  /// servers are re-sent the round's same-nonce wr on a backoff schedule;
  /// once it gives up the round fails over to a fresh broadcast (new
  /// nonce, fresh quorum attempt). Disabled, the writer is byte-identical
  /// to the send-once Figure 5 automaton.
  RqsWriter(sim::Simulation& sim, ProcessId id, const RefinedQuorumSystem& rqs,
            ProcessSet servers, ObjectId key = 0, std::uint32_t rank = 0,
            RetryPolicy::Config retry = {});

  /// Starts write(v); `done` fires at the response step. At most one
  /// operation may be outstanding (the paper's well-formedness).
  void write(Value v, DoneFn done);

  [[nodiscard]] bool busy() const noexcept { return round_ != 0; }
  /// Rounds taken by the last completed write (1, 2 or 3).
  [[nodiscard]] RoundNumber last_write_rounds() const noexcept { return last_rounds_; }
  /// The writer's current local timestamp.
  [[nodiscard]] Timestamp timestamp() const noexcept { return ts_; }
  [[nodiscard]] ObjectId key() const noexcept { return key_; }
  /// The pair of the last write that completed (initial if none yet).
  [[nodiscard]] TsValue last_completed() const noexcept { return completed_; }

  void on(ProcessId from, const WrAck& ack);
  void on_timer(sim::TimerId timer) override;
  void digest_state(Fnv64& h) const override;

 private:
  void start_round();
  /// The current round's wr, shared by the first send and every same-nonce
  /// retransmission (servers re-ack it idempotently).
  [[nodiscard]] sim::PooledMessage<WrMsg> round_msg();
  void maybe_finish_round();
  void complete();

  const RefinedQuorumSystem& rqs_;
  ProcessSet servers_;
  ObjectId key_;
  std::uint32_t rank_;
  sim::Retransmitter retx_;

  Timestamp ts_;
  Value value_{kBottom};
  DoneFn done_;
  TsValue completed_{kInitialPair};

  RoundNumber round_{0};  // 0 = idle
  std::uint64_t op_{0};   // nonce of the current round's wr broadcast
  std::uint64_t op_seq_{0};
  ProcessSet acked_;      // servers that acked the current round
  QuorumIdSet qc2_prime_; // the paper's QC'2
  bool timer_expired_{true};
  sim::TimerId timer_{0};
  RoundNumber last_rounds_{0};
  sim::SimTime write_started_{0};
  bool retried_op_{false};  // any retry timer fired during the current write
};

}  // namespace rqs::storage
