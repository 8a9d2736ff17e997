// Wire messages of the RQS atomic storage algorithm (Figures 5-7),
// generalized to a keyed register space with bounded per-key history.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "core/rqs.hpp"
#include "sim/message.hpp"

namespace rqs::storage {

/// A set of class 2 quorum identifiers (the paper's QC'2 / Set values).
/// These sets hold a handful of ids (subsets of one system's class 2
/// quorums), so one sorted vector beats std::set nodes, and copying one
/// (each wr carries a QC'2 set, each rd_ack history slot carries its Set)
/// is a single allocation at most.
using QuorumIdSet = FlatSet<QuorumId>;

/// One slot of a server's history matrix: history[ts, rnd] = <pair, sets>.
struct HistorySlot {
  TsValue pair{kInitialPair};
  QuorumIdSet sets;

  [[nodiscard]] bool is_initial() const {
    return pair == kInitialPair && sets.empty();
  }
  friend bool operator==(const HistorySlot&, const HistorySlot&) = default;
};

/// A server's history of one shared variable: rows in timestamp order,
/// three slots per row (rounds 1..3). Absent rows/slots are initial.
/// The paper deliberately keeps the entire history (Section 5); servers
/// bound it with compact_below() once a row's timestamp is known to be
/// below the latest *complete* write (see RqsStorageServer).
///
/// Layout: a flat sorted vector of rows with the three round slots inline
/// (replacing nested std::maps). Every rd_ack copies a snapshot, readers
/// probe slots millions of times per swarm, and compacted histories hold
/// one or two rows — so binary search over contiguous rows wins on every
/// axis. A per-row presence mask keeps map semantics: at() distinguishes
/// "never created" from "created, still initial", and for_each / counts
/// visit only created slots.
class ServerHistory {
 public:
  /// Round slots per row; the paper indexes history[ts, rnd], rnd in 1..3.
  static constexpr RoundNumber kRounds = 3;

  /// Read access; returns the initial slot when the entry was never set.
  [[nodiscard]] const HistorySlot& at(Timestamp ts, RoundNumber rnd) const {
    static const HistorySlot kInitial{};
    if (rnd < 1 || rnd > kRounds) return kInitial;
    const auto it = lower(ts);
    if (it == rows_.end() || it->ts != ts || (it->present & bit(rnd)) == 0) {
      return kInitial;
    }
    return it->slots[rnd - 1];
  }

  /// Mutable access, creating the row/slot on demand.
  [[nodiscard]] HistorySlot& slot(Timestamp ts, RoundNumber rnd) {
    assert(rnd >= 1 && rnd <= kRounds);
    auto it = rows_.begin() + (lower(ts) - rows_.begin());
    if (it == rows_.end() || it->ts != ts) it = rows_.insert(it, Row{ts, 0, {}});
    it->present |= bit(rnd);
    return it->slots[rnd - 1];
  }

  /// Iterates created slots in (timestamp, round) order: fn(ts, rnd, slot).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Row& r : rows_) {
      for (RoundNumber rnd = 1; rnd <= kRounds; ++rnd) {
        if ((r.present & bit(rnd)) != 0) fn(r.ts, rnd, r.slots[rnd - 1]);
      }
    }
  }

  /// Drops every row with timestamp strictly below `floor`; the floor row
  /// itself (the latest complete pair) and everything above it — the rows
  /// a reader can still need — survive. Returns how many rows were erased.
  std::size_t compact_below(Timestamp floor) {
    const auto it = lower(floor);
    const auto erased = static_cast<std::size_t>(it - rows_.begin());
    rows_.erase(rows_.begin(), it);
    return erased;
  }

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

  /// Total populated slots: the payload size of a rd_ack snapshot.
  [[nodiscard]] std::size_t slot_count() const noexcept {
    std::size_t n = 0;
    for (const Row& r : rows_) {
      n += static_cast<std::size_t>(std::popcount(r.present));
    }
    return n;
  }

  /// Forgets everything but keeps the row storage (readers reuse one
  /// ServerHistory per server across reads).
  void clear() noexcept { rows_.clear(); }

 private:
  struct Row {
    Timestamp ts;
    std::uint8_t present;  // bit (1 << rnd) set once slot(ts, rnd) created
    HistorySlot slots[kRounds];
  };

  [[nodiscard]] static constexpr std::uint8_t bit(RoundNumber rnd) noexcept {
    return static_cast<std::uint8_t>(1u << rnd);
  }

  [[nodiscard]] std::vector<Row>::const_iterator lower(Timestamp ts) const {
    return std::lower_bound(
        rows_.begin(), rows_.end(), ts,
        [](const Row& r, const Timestamp& t) { return r.ts < t; });
  }

  std::vector<Row> rows_;  // sorted by ts
};

// Content-digest helpers shared by the message digest_into overrides below
// and the process digest_state overrides in server/reader/writer. They fold
// protocol values field-by-field (never raw bytes: padding and container
// internals are not content) so the model checker's state digests depend
// only on protocol-visible data.
inline void digest_into(Fnv64& h, const Timestamp& ts) {
  h.mix(ts.seq);
  h.mix(ts.writer);
}
inline void digest_into(Fnv64& h, const TsValue& c) {
  digest_into(h, c.ts);
  h.mix(static_cast<std::uint64_t>(c.val));
}
inline void digest_into(Fnv64& h, const QuorumIdSet& s) {
  h.mix(s.size());
  for (const QuorumId id : s) h.mix(id);
}
inline void digest_into(Fnv64& h, const ServerHistory& hist) {
  h.mix(hist.slot_count());
  hist.for_each([&h](Timestamp ts, RoundNumber rnd, const HistorySlot& slot) {
    digest_into(h, ts);
    h.mix(rnd);
    digest_into(h, slot.pair);
    digest_into(h, slot.sets);
  });
}

struct WrMsg;
struct WrAck;
struct RdMsg;
struct RdAck;
using Messages = sim::MessageList<WrMsg, WrAck, RdMsg, RdAck>;

/// wr<key, ts, v, QC'2, rnd> — sent by the writer in all rounds and by
/// readers during writebacks. `op` is a per-sender operation nonce echoed
/// in wr_ack, so a late ack from an earlier operation's round can never
/// satisfy a later operation's quorum (two reads writing back the same
/// pair share (ts, rnd)). `completed` is the highest pair the sender knows
/// to be complete on this key; servers use it to bound their history (see
/// RqsStorageServer).
struct WrMsg final : sim::TypedMessage<WrMsg, Messages, 128> {
  ObjectId key{0};
  Timestamp ts{0};
  Value value{kBottom};
  QuorumIdSet qc2_set;  // the paper's QC'2 / Set parameter
  RoundNumber rnd{1};
  std::uint64_t op{0};
  TsValue completed{kInitialPair};

  [[nodiscard]] std::string_view tag() const override { return "WR"; }
  void digest_into(Fnv64& h) const override {
    h.mix(kType);
    h.mix(key);
    storage::digest_into(h, ts);
    h.mix(static_cast<std::uint64_t>(value));
    storage::digest_into(h, qc2_set);
    h.mix(rnd);
    h.mix(op);
    storage::digest_into(h, completed);
  }
};

/// wr_ack<key, ts, rnd, op>.
struct WrAck final : sim::TypedMessage<WrAck, Messages, 128> {
  ObjectId key{0};
  Timestamp ts{0};
  RoundNumber rnd{1};
  std::uint64_t op{0};

  [[nodiscard]] std::string_view tag() const override { return "WR_ACK"; }
  void digest_into(Fnv64& h) const override {
    h.mix(kType);
    h.mix(key);
    storage::digest_into(h, ts);
    h.mix(rnd);
    h.mix(op);
  }
};

/// rd<key, read_no, rnd>. Reads stay mutation-free as in the paper:
/// completion knowledge travels only on the write path (writer rounds and
/// read writebacks), so a rd never changes what a server would reply.
struct RdMsg final : sim::TypedMessage<RdMsg, Messages, 64> {
  ObjectId key{0};
  std::uint64_t read_no{0};
  RoundNumber rnd{1};

  [[nodiscard]] std::string_view tag() const override { return "RD"; }
  void digest_into(Fnv64& h) const override {
    h.mix(kType);
    h.mix(key);
    h.mix(read_no);
    h.mix(rnd);
  }
};

/// rd_ack<key, read_no, rnd, history> — carries the server's history
/// snapshot for the key: the full history in the paper's literal protocol,
/// a bounded suffix once the server compacts (rows at or above the latest
/// complete timestamp it knows, plus any in-flight stragglers).
struct RdAck final : sim::TypedMessage<RdAck, Messages, 128> {
  ObjectId key{0};
  std::uint64_t read_no{0};
  RoundNumber rnd{1};
  ServerHistory history;

  [[nodiscard]] std::string_view tag() const override { return "RD_ACK"; }
  void digest_into(Fnv64& h) const override {
    h.mix(kType);
    h.mix(key);
    h.mix(read_no);
    h.mix(rnd);
    storage::digest_into(h, history);
  }
};

}  // namespace rqs::storage
