// RQS atomic storage: reader automaton (Figure 7).
//
// A read has two parts. The *collect* part (the repeat loop, lines 20-35)
// implements a regular read: rounds of rd messages gather server history
// snapshots until some candidate pair is both safe (confirmed by a basic
// subset, so not fabricated by Byzantine servers) and a highest candidate
// (every pair with a higher timestamp is invalid); the selected pair csel
// is the maximum of those. The *writeback* part (lines 40-49) enforces
// atomicity, steered by the Best-Case Detector BCD: in a synchronous
// uncontended read it returns after round 1 (class 1 quorum available),
// after one writeback round (class 2 available; the writeback carries the
// ids of class 2 quorums that responded — the paper's key new trick), or
// after two writeback rounds otherwise.
//
// A reader is a per-key session of the keyed register space. When an
// atomic read returns csel, csel is complete; the reader piggybacks the
// highest such pair on its subsequent rd and writeback messages so
// servers can bound their histories (see RqsStorageServer).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/retry.hpp"
#include "core/rqs.hpp"
#include "sim/process.hpp"
#include "sim/retransmitter.hpp"
#include "storage/messages.hpp"

namespace rqs::storage {

/// A reader hears only the two ack types: requests are addressed to
/// servers.
class RqsReader final
    : public sim::ProcessOf<RqsReader, Messages,
                            sim::MessageList<WrMsg, RdMsg>> {
 public:
  using DoneFn = std::function<void(Value)>;

  /// Consistency mode. kAtomic runs the full algorithm. kRegular runs only
  /// the collect part (lines 20-35) and returns csel without any
  /// writeback — the paper notes this part alone implements a *regular*
  /// storage (Section 3.2/Section 6): reads return the last complete or a
  /// concurrent write's value, but new-old read inversions are possible.
  enum class Mode { kAtomic, kRegular };

  /// `retry` (disabled by default) drives a sim::Retransmitter: the
  /// current round's collect rd or writeback wr is re-sent to unacked
  /// servers on a backoff schedule; once it gives up the phase fails over
  /// (a fresh collect round / a fresh writeback nonce — i.e. a fresh
  /// quorum attempt). Disabled, the reader is byte-identical to the
  /// send-once Figure 7 automaton.
  RqsReader(sim::Simulation& sim, ProcessId id, const RefinedQuorumSystem& rqs,
            ProcessSet servers, Mode mode = Mode::kAtomic, ObjectId key = 0,
            RetryPolicy::Config retry = {});

  /// Starts a read(); `done` receives the returned value.
  void read(DoneFn done);

  [[nodiscard]] bool busy() const noexcept { return phase_ != Phase::kIdle; }
  /// Total rounds (collect + writeback) of the last completed read.
  [[nodiscard]] RoundNumber last_read_rounds() const noexcept { return last_rounds_; }
  [[nodiscard]] ObjectId key() const noexcept { return key_; }

  void on(ProcessId from, const RdAck& ack);
  void on(ProcessId from, const WrAck& ack);
  void digest_state(Fnv64& h) const override;

 private:
  enum class Phase {
    kIdle,
    kCollect,       // a round of the repeat loop (lines 22-34)
    kWriteback1,    // the guarded first writeback round (lines 43-46)
    kWriteback1Plain,  // writeback(1, csel, {}) of line 49
    kWriteback2,    // writeback(2, csel, {}) (lines 42, 47, 49)
  };

  // --- predicates of Figure 7 (lines 1-9) ---
  [[nodiscard]] const HistorySlot& slot(ProcessId i, Timestamp ts, RoundNumber rnd) const;
  /// read(c, i): server i reported pair c in slot 1 or 2 (line 7).
  [[nodiscard]] bool read_pred(const TsValue& c, ProcessId i) const;
  /// The responded servers reporting pair c in slot `rnd`.
  [[nodiscard]] ProcessSet responded_holders(const TsValue& c, RoundNumber rnd) const;
  [[nodiscard]] bool valid3(const TsValue& c, ProcessSet q) const;  // line 5
  /// Line 6; evaluates valid1 (line 3) and valid2 (line 4) inline.
  [[nodiscard]] bool invalid(const TsValue& c) const;
  [[nodiscard]] bool safe(const TsValue& c) const;                  // line 8
  /// BCD(c, 1, R) (line 1).
  [[nodiscard]] bool bcd1(const TsValue& c, RoundNumber r) const;
  /// BCD(c, 2, R) (line 2): subset of QC'2.
  [[nodiscard]] QuorumIdSet bcd2(const TsValue& c, RoundNumber r) const;

  /// All distinct pairs appearing in any received snapshot's slot 1 or 2
  /// (the candidate universe; always includes the initial pair).
  [[nodiscard]] std::vector<TsValue> candidate_pairs() const;

  // --- state machine ---
  void start_collect_round();
  void maybe_finish_collect_round();
  void end_collect_round();
  void after_selection();
  void start_writeback(RoundNumber wb_round, const QuorumIdSet& set, Phase next_phase);
  void maybe_finish_writeback();
  void finish(Value v);
  /// Round messages, shared by the first send and every retransmission:
  /// the collect rd (line 25) and the writeback wr (line 60).
  [[nodiscard]] sim::PooledMessage<RdMsg> collect_msg();
  [[nodiscard]] sim::PooledMessage<WrMsg> writeback_msg();
  void start_retry();
  /// The gate's handler: the timeout of collect round 1 or of the guarded
  /// writeback expired.
  void on_gate();
  /// The retransmitter's reactions: re-send the current round's message to
  /// the servers that have not acked it; once it gives up, fail over.
  void resend();
  void fail_over();

  // A pointer, not a reference, so the process can be assigned (see
  // sim::Process): never null.
  const RefinedQuorumSystem* rqs_;
  ProcessSet servers_;
  Mode mode_;
  ObjectId key_;
  sim::Retransmitter retx_;

  DoneFn done_;
  Phase phase_{Phase::kIdle};

  std::uint64_t read_no_{0};
  RoundNumber read_rnd_{0};
  // history[i] (line 51), dense by server id: servers are 0..n-1, and the
  // predicates probe slots millions of times per swarm — a vector index
  // beats the old per-probe map lookup. Row storage is reused across
  // reads (clear() keeps capacity).
  std::vector<ServerHistory> history_;
  QuorumIdSet responded_;                       // Responded (lines 52-53)
  ProcessSet responded_servers_;                // servers acking any round
  ProcessSet round_acks_;                       // servers acking this round
  QuorumIdSet qc2_prime_;                       // QC'2 (lines 30-31)
  Timestamp highest_ts_{0};
  // The 2*Delta timeout of collect round 1 (line 24) and of the guarded
  // writeback (line 45); idle = expired.
  sim::Timer gate_{*this, [this] { on_gate(); }};
  TsValue csel_{kInitialPair};
  TsValue completed_{kInitialPair};

  // Writeback bookkeeping.
  RoundNumber wb_round_{0};
  std::uint64_t wb_op_{0};   // nonce of the current writeback broadcast
  std::uint64_t op_seq_{0};
  ProcessSet wb_acks_;
  QuorumIdSet wb_target_;  // X = BCD(csel, 2, 1) for the line 46 check

  QuorumIdSet wb_set_;     // qc2_set carried by the current writeback

  RoundNumber total_rounds_{0};
  RoundNumber last_rounds_{0};
  sim::SimTime read_started_{0};
  bool retried_op_{false};  // any retry timer fired during the current read
};

}  // namespace rqs::storage
