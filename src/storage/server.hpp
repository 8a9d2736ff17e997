// RQS atomic storage: server automaton (Figure 6) and Byzantine variants,
// extended with a keyed register space and bounded-history compaction.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "sim/process.hpp"
#include "storage/messages.hpp"

namespace rqs::storage {

/// A benign storage server (Figure 6). On wr<key, ts, v, QC'2, rnd> it
/// fills slots 1..rnd of the key's history row ts (never overwriting a
/// conflicting pair) and accumulates QC'2 into slot rnd's quorum set; on
/// rd it replies with the key's history.
///
/// History bounding (deviation from the paper's keep-everything storage,
/// Section 5): clients piggyback the highest pair they *know* to be
/// complete on every wr (writer rounds and read writebacks; rd messages
/// stay mutation-free). The server first materializes that pair into
/// slots 1-2 of its row (legal protocol content — the sender could have
/// sent the same pair as a round-2 writeback), then drops all rows
/// strictly below it. Rows a reader can still need — the latest complete
/// row and every in-flight row above or below arriving later — survive,
/// so rd_ack snapshots stay O(in-flight writes) instead of O(all writes).
/// Construct with compact = false for the full-history reference mode
/// (the differential-test and benchmark baseline): completion tracking
/// and materialization stay on — both modes are message-for-message
/// identical — but no row is ever dropped, as in the paper's Section 5
/// storage. Materialization itself is covered by direct unit tests
/// (storage_compaction_test), since the differential comparison is
/// common-mode with respect to it.
///
/// A server only serves requests, so it drops acks: they are addressed to
/// clients and can reach it only via a forger.
class RqsStorageServer
    : public sim::ProcessOf<RqsStorageServer, Messages,
                            sim::MessageList<WrAck, RdAck>> {
 public:
  RqsStorageServer(sim::Simulation& sim, ProcessId id, bool compact = true)
      : ProcessOf(sim, id), compact_(compact) {}

  void on(ProcessId from, const WrMsg& wr);
  void on(ProcessId from, const RdMsg& rd);
  void digest_state(Fnv64& h) const override;

  [[nodiscard]] const ServerHistory& history(ObjectId key = 0) const noexcept {
    static const ServerHistory kEmpty{};
    const auto it = keys_.find(key);
    return it == keys_.end() ? kEmpty : it->second.history;
  }
  /// Highest complete timestamp the server has learned for the key (rows
  /// below it are compacted away when compaction is enabled).
  [[nodiscard]] Timestamp floor(ObjectId key = 0) const noexcept {
    const auto it = keys_.find(key);
    return it == keys_.end() ? Timestamp{} : it->second.floor;
  }

  /// rd_ack payload accounting for the scaling benches: snapshots sent and
  /// their cumulative row/slot counts since the last reset.
  struct ReplyStats {
    std::uint64_t replies{0};
    std::uint64_t rows{0};
    std::uint64_t slots{0};
  };
  [[nodiscard]] const ReplyStats& reply_stats() const noexcept { return reply_stats_; }
  void reset_reply_stats() noexcept { reply_stats_ = ReplyStats{}; }

 protected:
  /// Hook for Byzantine subclasses: the history snapshot actually sent in
  /// a rd_ack (benign servers return the genuine history of the key).
  [[nodiscard]] virtual ServerHistory history_for_reply(ObjectId key,
                                                        ProcessId reader) {
    (void)reader;
    return history(key);
  }

 private:
  struct KeyState {
    ServerHistory history;
    Timestamp floor{};  // highest pair known complete (ts part)
  };

  /// Records that `completed` is a complete pair for the key: materialize
  /// it (slots 1-2, guarded like any write), raise the floor, compact.
  void note_completed(ObjectId key, KeyState& ks, const TsValue& completed);

  bool compact_;
  std::map<ObjectId, KeyState> keys_;
  ReplyStats reply_stats_;
};

/// A Byzantine storage server with a pluggable reply-forging strategy.
/// It follows the write path of the protocol (so that benign-looking
/// behaviour is available when the strategy wants it) but answers reads
/// with whatever the strategy fabricates — including "forgetting" rounds
/// (the sigma_0 / sigma_1 forgeries of the paper's Theorem 3 executions)
/// or inventing pairs with arbitrary timestamps.
class ByzantineStorageServer final : public RqsStorageServer {
 public:
  /// Strategy: given the genuine history (of the requested key) and the
  /// reader id, produce the history to report.
  using ForgeFn = std::function<ServerHistory(const ServerHistory&, ProcessId)>;

  ByzantineStorageServer(sim::Simulation& sim, ProcessId id, ForgeFn forge,
                         bool compact = true)
      : RqsStorageServer(sim, id, compact), forge_(std::move(forge)) {}

  /// Convenience strategies.
  /// Reports the empty (initial) history — the sigma_0 state forgery.
  [[nodiscard]] static ForgeFn forget_everything();
  /// Reports a history containing a fabricated pair in slots 1 and 2.
  [[nodiscard]] static ForgeFn fabricate(TsValue pair);
  /// Equivocates: readers with even ids see `even` fabricated, odd ids see
  /// `odd` — two readers obtain conflicting snapshots from one server.
  [[nodiscard]] static ForgeFn equivocate(TsValue even, TsValue odd);

 protected:
  [[nodiscard]] ServerHistory history_for_reply(ObjectId key,
                                                ProcessId reader) override {
    return forge_(history(key), reader);
  }

 private:
  ForgeFn forge_;
};

}  // namespace rqs::storage
