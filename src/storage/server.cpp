#include "storage/server.hpp"

#include "obs/observer.hpp"

namespace rqs::storage {

void RqsStorageServer::note_completed(ObjectId key, KeyState& ks,
                                      const TsValue& completed) {
  if (completed == kInitialPair || completed.ts <= ks.floor) return;
  // Materialize the complete pair before compacting: a server may learn
  // the floor from a client that knows the pair is complete while the
  // server itself missed the write (partition, drop). The pair is exactly
  // what a round-2 writeback would have delivered, so storing it in slots
  // 1-2 is legal protocol content — and without it, compaction could
  // delete the server's only evidence of a complete write.
  for (RoundNumber rnd = 1; rnd <= 2; ++rnd) {
    HistorySlot& s = ks.history.slot(completed.ts, rnd);
    if (s.is_initial()) s.pair = completed;
  }
  ks.floor = completed.ts;
  if (auto* ob = sim().observer()) {
    ob->count("storage.floor.advance");
    const std::size_t before = ks.history.row_count();
    if (compact_) ks.history.compact_below(ks.floor);
    const std::size_t dropped = before - ks.history.row_count();
    if (compact_) {
      ob->record_latency("storage.compaction.rows_dropped",
                         static_cast<std::int64_t>(dropped));
      ob->compaction(now(), id(), key, dropped, completed.ts.seq);
    }
  } else if (compact_) {
    ks.history.compact_below(ks.floor);
  }
}

void RqsStorageServer::on(ProcessId from, const WrMsg& wr) {
  KeyState& ks = keys_[wr.key];
  note_completed(wr.key, ks, wr.completed);
  // Lines 3-6 of Figure 6: fill slots 1..rnd, guarding against
  // overwriting a different pair at the same timestamp; the QC'2 set is
  // accumulated only in the slot of the message's round.
  for (RoundNumber rnd = 1; rnd <= wr.rnd; ++rnd) {
    HistorySlot& s = ks.history.slot(wr.ts, rnd);
    const TsValue incoming{wr.ts, wr.value};
    if (s.is_initial() || s.pair == incoming) {
      s.pair = incoming;
      if (rnd == wr.rnd) {
        s.sets.insert(wr.qc2_set.begin(), wr.qc2_set.end());
      }
    }
  }
  auto ack = make_msg<WrAck>();
  ack->key = wr.key;
  ack->ts = wr.ts;
  ack->rnd = wr.rnd;
  ack->op = wr.op;
  send(from, std::move(ack));
}

void RqsStorageServer::on(ProcessId from, const RdMsg& rd) {
  // Lines 8-9 of Figure 6: reply with the (bounded) history.
  auto ack = make_msg<RdAck>();
  ack->key = rd.key;
  ack->read_no = rd.read_no;
  ack->rnd = rd.rnd;
  ack->history = history_for_reply(rd.key, from);
  ++reply_stats_.replies;
  reply_stats_.rows += ack->history.row_count();
  reply_stats_.slots += ack->history.slot_count();
  if (auto* ob = sim().observer()) {
    ob->record_latency("storage.rdack.rows",
                       static_cast<std::int64_t>(ack->history.row_count()));
  }
  send(from, std::move(ack));
}

ByzantineStorageServer::ForgeFn ByzantineStorageServer::forget_everything() {
  return [](const ServerHistory&, ProcessId) { return ServerHistory{}; };
}

ByzantineStorageServer::ForgeFn ByzantineStorageServer::fabricate(TsValue pair) {
  return [pair](const ServerHistory& genuine, ProcessId) {
    ServerHistory forged = genuine;
    forged.slot(pair.ts, 1).pair = pair;
    forged.slot(pair.ts, 2).pair = pair;
    return forged;
  };
}

ByzantineStorageServer::ForgeFn ByzantineStorageServer::equivocate(TsValue even,
                                                                   TsValue odd) {
  return [even, odd](const ServerHistory& genuine, ProcessId reader) {
    const TsValue pair = (reader % 2 == 0) ? even : odd;
    ServerHistory forged = genuine;
    forged.slot(pair.ts, 1).pair = pair;
    forged.slot(pair.ts, 2).pair = pair;
    return forged;
  };
}

// Model-checker state digest: the per-key histories and floors are the
// server's whole protocol-visible state. reply_stats_ is observation-only
// and deliberately excluded so equivalent states merge.
void RqsStorageServer::digest_state(Fnv64& h) const {
  h.mix(compact_ ? 1 : 0);
  h.mix(keys_.size());
  for (const auto& [key, ks] : keys_) {
    h.mix(key);
    digest_into(h, ks.floor);
    digest_into(h, ks.history);
  }
}

}  // namespace rqs::storage
