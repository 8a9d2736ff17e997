#include "storage/reader.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

#include "obs/observer.hpp"

namespace rqs::storage {

RqsReader::RqsReader(sim::Simulation& sim, ProcessId id,
                     const RefinedQuorumSystem& rqs, ProcessSet servers,
                     Mode mode, ObjectId key, RetryPolicy::Config retry)
    : ProcessOf(sim, id), rqs_(&rqs), servers_(servers), mode_(mode),
      key_(key),
      retx_(*this, retry, [this] { resend(); }, [this] { fail_over(); }),
      history_(rqs.universe_size()) {}

void RqsReader::read(DoneFn done) {
  assert(!busy() && "one outstanding operation per client");
  done_ = std::move(done);
  retried_op_ = false;
  // Lines 20-21.
  read_rnd_ = 0;
  qc2_prime_.clear();
  responded_.clear();
  responded_servers_ = ProcessSet{};
  for (ServerHistory& h : history_) h.clear();
  highest_ts_ = 0;
  total_rounds_ = 0;
  ++read_no_;
  read_started_ = now();
  phase_ = Phase::kCollect;
  start_collect_round();
}

// ---------------------------------------------------------------------------
// Predicates (lines 1-9 of Figure 7). history[i] defaults to the initial
// history for servers that have not responded, exactly as the paper
// initializes history[*,*,*] := <<0, bottom>, {}> (line 10).
// ---------------------------------------------------------------------------

const HistorySlot& RqsReader::slot(ProcessId i, Timestamp ts,
                                   RoundNumber rnd) const {
  static const HistorySlot kInitial{};
  if (i >= history_.size()) return kInitial;
  return history_[i].at(ts, rnd);  // an empty history reads as initial
}

bool RqsReader::read_pred(const TsValue& c, ProcessId i) const {
  return slot(i, c.ts, 1).pair == c || slot(i, c.ts, 2).pair == c;
}

ProcessSet RqsReader::responded_holders(const TsValue& c, RoundNumber rnd) const {
  ProcessSet out;
  for (const ProcessId i : responded_servers_) {
    if (slot(i, c.ts, rnd).pair == c) out.insert(i);
  }
  return out;
}

bool RqsReader::valid3(const TsValue& c, ProcessSet q) const {
  // exists Q2 in QC2, exists B in adversary with P3b(Q2, Q, B), such that
  // every server of Q2 n Q \ B reports <c, Set_i> in slot 1 with Q2 in
  // Set_i. The existential over B collapses to a single witness: with
  // miss = the members of Q2 n Q that fail the report condition, any
  // B containing miss works only if miss itself does (B is downward
  // closed, so miss in B; and P3b is antitone in its B argument, so
  // P3b(Q2, Q, B) implies P3b(Q2, Q, miss)). Conversely b = miss is a
  // valid witness. So: valid3 iff miss in B and P3b(Q2, Q, miss) — no
  // enumeration of adversary elements.
  return rqs_->any_quorum(QuorumClass::Class2, [&](QuorumId q2id) {
    const ProcessSet q2 = rqs_->quorum_set(q2id);
    ProcessSet miss;
    for (const ProcessId i : q2 & q) {
      const HistorySlot& s = slot(i, c.ts, 1);
      if (s.pair != c || !s.sets.contains(q2id)) miss.insert(i);
    }
    return rqs_->adversary().contains(miss) && rqs_->p3b(q2, q, miss);
  });
}

bool RqsReader::invalid(const TsValue& c) const {
  if (c.ts > highest_ts_) return true;
  // Every quorum in Responded lies inside responded_servers_, so valid1
  // and valid2 of a quorum Q only need Q's intersection with the holder
  // sets S1 / S2 (the responded servers reporting c in slot 1 / slot 2):
  // each history is probed once per candidate, not once per quorum. S2 is
  // built only once some quorum fails valid1.
  const ProcessSet s1 = responded_holders(c, 1);
  std::optional<ProcessSet> s2;
  for (const QuorumId qid : responded_) {
    const ProcessSet q = rqs_->quorum_set(qid);
    // Line 3, valid1: some T subset of Q, T not in B, reports c in slot 1.
    // The maximal such T is Q n S1; B downward closed makes checking it
    // alone sound and complete.
    if (rqs_->adversary().is_basic(q & s1)) continue;
    // Line 4, valid2: some server of Q reports c in slot 2.
    if (!s2) s2 = responded_holders(c, 2);
    if (q.intersects(*s2)) continue;
    if (!valid3(c, q)) return true;  // line 5
  }
  return false;
}

bool RqsReader::safe(const TsValue& c) const {
  ProcessSet holders;
  for (const ProcessId i : servers_) {
    if (read_pred(c, i)) holders.insert(i);
  }
  return rqs_->adversary().is_basic(holders);
}

std::vector<TsValue> RqsReader::candidate_pairs() const {
  std::vector<TsValue> out{kInitialPair};
  for (const ServerHistory& hist : history_) {
    hist.for_each([&](Timestamp, RoundNumber rnd, const HistorySlot& s) {
      if (rnd <= 2 && std::find(out.begin(), out.end(), s.pair) == out.end()) {
        out.push_back(s.pair);
      }
    });
  }
  return out;
}

bool RqsReader::bcd1(const TsValue& c, RoundNumber r) const {
  // line 1: exists Q1 in QC1, QR in QC_R, a common Set, with
  // Q1 n QR subset of {s_i : history[i, c.ts, R] = <c, Set>} and
  // (R != 2 or QR in Set).
  return rqs_->any_quorum(QuorumClass::Class1, [&](QuorumId q1id) {
    const ProcessSet q1 = rqs_->quorum_set(q1id);
    return rqs_->any_quorum(static_cast<QuorumClass>(r), [&](QuorumId qrid) {
      const ProcessSet inter = q1 & rqs_->quorum_set(qrid);
      if (inter.empty()) return false;
      // All members must hold slot <c, Set> for one common Set.
      const HistorySlot& first = slot(inter.first(), c.ts, r);
      if (first.pair != c) return false;
      for (const ProcessId i : inter) {
        const HistorySlot& s = slot(i, c.ts, r);
        if (s.pair != c || s.sets != first.sets) return false;
      }
      return r != 2 || first.sets.contains(qrid);
    });
  });
}

QuorumIdSet RqsReader::bcd2(const TsValue& c, RoundNumber r) const {
  // line 2: the class 2 quorums Q2 of QC'2 for which some class R quorum
  // QR satisfies QR n Q2 subset of {s_i : history[i, c.ts, R].pair = c}.
  QuorumIdSet out;
  for (const QuorumId q2id : qc2_prime_) {
    const ProcessSet q2 = rqs_->quorum_set(q2id);
    const bool covered = rqs_->any_quorum(static_cast<QuorumClass>(r), [&](QuorumId qrid) {
      const ProcessSet inter = q2 & rqs_->quorum_set(qrid);
      return std::all_of(inter.begin(), inter.end(), [&](ProcessId i) {
        return slot(i, c.ts, r).pair == c;
      });
    });
    if (covered) out.insert(q2id);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Collect phase (the repeat loop, lines 22-34).
// ---------------------------------------------------------------------------

void RqsReader::start_collect_round() {
  ++read_rnd_;  // line 23
  ++total_rounds_;
  if (auto* ob = sim().observer()) {
    ob->phase(now(), id(), obs::kPhaseReadCollect, key_, read_no_,
              static_cast<std::uint8_t>(read_rnd_));
  }
  round_acks_ = ProcessSet{};
  // Line 24: round 1 only. Later rounds find the gate idle: round 1 ended
  // only after it fired.
  if (read_rnd_ == 1) gate_.arm(2 * sim().delta());
  send_all(servers_, collect_msg());  // line 25
  start_retry();
}

sim::PooledMessage<RdMsg> RqsReader::collect_msg() {
  auto msg = make_msg<RdMsg>();
  msg->key = key_;
  msg->read_no = read_no_;
  msg->rnd = read_rnd_;
  return msg;
}

sim::PooledMessage<WrMsg> RqsReader::writeback_msg() {
  auto msg = make_msg<WrMsg>();
  msg->key = key_;
  msg->ts = csel_.ts;
  msg->value = csel_.val;
  msg->qc2_set = wb_set_;
  msg->rnd = wb_round_;
  msg->op = wb_op_;  // a retransmission keeps the nonce: servers re-ack
  msg->completed = completed_;
  return msg;
}

void RqsReader::start_retry() {
  retx_.start((static_cast<std::uint64_t>(id()) << 32) ^ (read_no_ << 16) ^
              total_rounds_);
}

void RqsReader::on(ProcessId from, const RdAck& ack) {
  if (!servers_.contains(from)) return;
  if (ack.key != key_ || ack.read_no != read_no_ || phase_ == Phase::kIdle) {
    return;
  }
  // Lines 50-51: adopt the snapshot (any round of this read).
  if (from < history_.size()) history_[from] = ack.history;
  responded_servers_.insert(from);
  // Lines 52-53: extend Responded with fully-acked quorums. Only quorums
  // containing `from` can newly become complete.
  if (from < rqs_->universe_size()) {
    for (const QuorumId qid : rqs_->quorums_containing(from)) {
      if (!responded_.contains(qid) &&
          rqs_->quorum_set(qid).subset_of(responded_servers_)) {
        responded_.insert(qid);
      }
    }
  }
  if (phase_ == Phase::kCollect && ack.rnd == read_rnd_) {
    round_acks_.insert(from);
    maybe_finish_collect_round();
  }
}

void RqsReader::on(ProcessId from, const WrAck& ack) {
  if (!servers_.contains(from)) return;
  if (phase_ != Phase::kWriteback1 && phase_ != Phase::kWriteback1Plain &&
      phase_ != Phase::kWriteback2) {
    return;
  }
  // The nonce pins the ack to *this* writeback broadcast: a late ack from
  // a previous read's writeback of the same (ts, rnd) must not count
  // toward this read's quorum (the server it came from may never have
  // stored this read's writeback).
  if (ack.key != key_ || ack.op != wb_op_) return;
  if (ack.ts != csel_.ts || ack.rnd != wb_round_) return;
  wb_acks_.insert(from);
  maybe_finish_writeback();
}

void RqsReader::resend() {
  retried_op_ = true;
  if (auto* ob = sim().observer()) ob->count("storage.read.retransmit");
  if (phase_ == Phase::kCollect) {
    send_all(servers_ - round_acks_, collect_msg());
  } else {
    send_all(servers_ - wb_acks_, writeback_msg());
  }
}

void RqsReader::fail_over() {
  // A fresh quorum attempt: a new collect round (collect phase) or a
  // fresh-nonce rebroadcast of the same writeback round (writeback
  // phases); either resets the ack set.
  retried_op_ = true;
  if (auto* ob = sim().observer()) ob->count("storage.read.failover");
  if (phase_ == Phase::kCollect) {
    start_collect_round();
  } else {
    const QuorumIdSet set = wb_set_;  // copy: start_writeback reassigns it
    start_writeback(wb_round_, set, phase_);
  }
}

void RqsReader::on_gate() {
  if (phase_ == Phase::kCollect) {
    maybe_finish_collect_round();
  } else if (phase_ == Phase::kWriteback1) {
    maybe_finish_writeback();
  }
}

void RqsReader::maybe_finish_collect_round() {
  // Line 26: acks of this round from some quorum; line 28: in round 1,
  // additionally the 2*Delta timer.
  if (gate_.armed()) return;
  if (!rqs_->has_quorum_in(round_acks_)) return;
  end_collect_round();
}

void RqsReader::end_collect_round() {
  const std::vector<TsValue> candidates = candidate_pairs();
  if (read_rnd_ == 1) {
    // Line 29: highest timestamp read anywhere (slots 1-2).
    highest_ts_ = 0;
    for (const TsValue& c : candidates) {
      for (const ProcessId i : servers_) {
        if (read_pred(c, i)) {
          highest_ts_ = std::max(highest_ts_, c.ts);
          break;
        }
      }
    }
    // Lines 30-31: QC'2 = class 2 quorums that acked round 1.
    qc2_prime_.clear();
    rqs_->any_quorum(QuorumClass::Class2, [&](QuorumId q2) {
      if (rqs_->quorum_set(q2).subset_of(round_acks_)) qc2_prime_.insert(q2);
      return false;
    });
  }
  // Line 9: highCand(c) iff no candidate with a higher timestamp is
  // not-invalid. One invalid() evaluation per candidate (instead of the
  // literal predicate's quadratic re-checks): take the highest timestamp
  // among not-invalid candidates; highCand(c) iff c.ts is not below it.
  Timestamp top_valid_ts{0};
  bool any_valid = false;
  for (const TsValue& c : candidates) {
    if (!invalid(c)) {
      any_valid = true;
      top_valid_ts = std::max(top_valid_ts, c.ts);
    }
  }
  // Lines 33-34: C = safe && highCand candidates.
  std::vector<TsValue> selected;
  for (const TsValue& c : candidates) {
    const bool high_cand = !any_valid || !(top_valid_ts > c.ts);
    if (high_cand && safe(c)) selected.push_back(c);
  }
  if (selected.empty()) {
    start_collect_round();  // repeat
    return;
  }
  csel_ = *std::max_element(selected.begin(), selected.end());  // line 35
  after_selection();
}

// ---------------------------------------------------------------------------
// Writeback phase (lines 40-49).
// ---------------------------------------------------------------------------

void RqsReader::after_selection() {
  if (mode_ == Mode::kRegular) {
    // Regular mode: the collect part alone (no writeback, no atomicity).
    finish(csel_.val);
    return;
  }
  // Line 40: BCD(csel, 1, i) in round 1 => return immediately.
  if (read_rnd_ == 1) {
    for (RoundNumber r = 1; r <= 3; ++r) {
      if (bcd1(csel_, r)) {
        finish(csel_.val);
        return;
      }
    }
  }
  // Line 41.
  QuorumIdSet bcd2_1 = bcd2(csel_, 1);
  QuorumIdSet bcd2_23;
  for (RoundNumber r = 2; r <= 3; ++r) {
    const QuorumIdSet s = bcd2(csel_, r);
    bcd2_23.insert(s.begin(), s.end());
  }
  if (read_rnd_ == 1 && (!bcd2_1.empty() || !bcd2_23.empty())) {
    if (!bcd2_23.empty()) {
      // Line 42: the pair is already complete at some quorum; one round-2
      // writeback finishes the read.
      start_writeback(2, QuorumIdSet{}, Phase::kWriteback2);
      return;
    }
    // Lines 43-46: guarded round-1 writeback carrying X = BCD(csel, 2, 1).
    gate_.arm(2 * sim().delta());
    wb_target_ = std::move(bcd2_1);
    start_writeback(1, wb_target_, Phase::kWriteback1);
    return;
  }
  // Line 49: plain two-round writeback.
  start_writeback(1, QuorumIdSet{}, Phase::kWriteback1Plain);
}

void RqsReader::start_writeback(RoundNumber wb_round, const QuorumIdSet& set,
                                Phase next_phase) {
  if (auto* ob = sim().observer()) {
    const std::uint32_t point = next_phase == Phase::kWriteback1
                                    ? obs::kPhaseReadWriteback1
                                    : next_phase == Phase::kWriteback1Plain
                                          ? obs::kPhaseReadWriteback1Plain
                                          : obs::kPhaseReadWriteback2;
    ob->phase(now(), id(), point, key_, read_no_,
              static_cast<std::uint8_t>(wb_round));
  }
  phase_ = next_phase;
  wb_round_ = wb_round;
  wb_op_ = ++op_seq_;
  wb_acks_ = ProcessSet{};
  wb_set_ = set;
  ++total_rounds_;
  send_all(servers_, writeback_msg());  // line 60
  start_retry();
}

void RqsReader::maybe_finish_writeback() {
  // Line 61: acks from some quorum.
  if (!rqs_->has_quorum_in(wb_acks_)) return;

  switch (phase_) {
    case Phase::kWriteback2:
      finish(csel_.val);  // line 62 / end of line 49
      return;
    case Phase::kWriteback1: {
      // Line 45: also wait for the timer before the line 46 check.
      if (gate_.armed()) return;
      // Line 46: acks from some quorum of X => the read completes.
      if (rqs_->has_quorum_in(wb_acks_, wb_target_)) {
        finish(csel_.val);
        return;
      }
      // Line 47.
      start_writeback(2, QuorumIdSet{}, Phase::kWriteback2);
      return;
    }
    case Phase::kWriteback1Plain:
      // Line 49, second half.
      start_writeback(2, QuorumIdSet{}, Phase::kWriteback2);
      return;
    default:
      return;
  }
}

void RqsReader::finish(Value v) {
  phase_ = Phase::kIdle;
  last_rounds_ = total_rounds_;
  if (auto* ob = sim().observer()) {
    // Ladder position of the completed read: 1 round = class 1 fast path,
    // 2 rounds = class 2 (one writeback), 3+ = class 3 / degraded.
    const std::uint8_t cls =
        total_rounds_ <= 1 ? 1 : (total_rounds_ == 2 ? 2 : 3);
    ob->count(cls == 1 ? "storage.read.class1"
                       : cls == 2 ? "storage.read.class2"
                                  : "storage.read.class3");
    ob->record_latency("storage.read.sim_time", now() - read_started_);
    ob->record_latency("storage.read.rounds", total_rounds_);
    ob->record_latency("storage.read.collect_rounds", read_rnd_);
    ob->record_latency("storage.read.writeback_rounds",
                       total_rounds_ - read_rnd_);
    ob->quorum_class(now(), id(), obs::kPhaseReadDone, cls, total_rounds_);
    ob->phase(now(), id(), obs::kPhaseReadDone, key_, read_no_,
              static_cast<std::uint8_t>(total_rounds_));
    if (retx_.enabled()) {
      ob->count(retried_op_ ? "storage.read.retried"
                            : "storage.read.first_try");
    }
  }
  retx_.stop();
  // An atomic read's csel is complete once the read returns (the
  // writeback — or the BCD fast-path proof — made it so); remember it for
  // the compaction piggyback. A regular read's csel may be a concurrent,
  // incomplete write, so kRegular never advances the floor.
  if (mode_ == Mode::kAtomic && csel_.ts > completed_.ts) completed_ = csel_;
  gate_.cancel();
  DoneFn done = std::move(done_);
  done_ = nullptr;
  if (done) done(v);
}

// Model-checker state digest. Covers every field that steers a future step
// of the read state machine; excludes the gate's id (timer ids are not
// canonical across equivalent schedules — armed() carries the
// protocol-visible bit), last_rounds_ / read_started_ (observation only)
// and the done_ callback (its liveness is implied by phase_).
void RqsReader::digest_state(Fnv64& h) const {
  h.mix(static_cast<std::uint64_t>(phase_));
  h.mix(read_no_);
  h.mix(read_rnd_);
  h.mix(history_.size());
  for (const ServerHistory& hist : history_) digest_into(h, hist);
  digest_into(h, responded_);
  digest_into(h, responded_servers_);
  digest_into(h, round_acks_);
  digest_into(h, qc2_prime_);
  digest_into(h, highest_ts_);
  h.mix(gate_.armed() ? 0 : 1);  // Fig. 7's "timeout expired"
  digest_into(h, csel_);
  digest_into(h, completed_);
  h.mix(wb_round_);
  h.mix(wb_op_);
  h.mix(op_seq_);
  digest_into(h, wb_acks_);
  digest_into(h, wb_target_);
  h.mix(total_rounds_);
  h.mix(retx_.attempt());
}

}  // namespace rqs::storage
